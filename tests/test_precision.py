from fractions import Fraction

import pytest
from mpmath import mp, mpf

from subexp.errors import InvalidParametersError
from subexp.precision import DEFAULT_DPS, set_working_precision, to_mpf


@pytest.fixture(autouse=True)
def restore_precision():
    old = mp.dps
    yield
    mp.dps = old


def test_default_precision_is_high():
    assert DEFAULT_DPS >= 30


def test_set_working_precision_roundtrip():
    set_working_precision(50)
    assert mp.dps == 50


def test_set_working_precision_rejects_low():
    with pytest.raises(ValueError):
        set_working_precision(10)
    # InvalidParametersError is a ValueError, which the CLI reports as exit 2
    before = mp.dps
    for dps in (10, 14, "x", "40", 40.0, True):
        with pytest.raises(InvalidParametersError, match=f"got {dps!r}$"):
            set_working_precision(dps)
    assert mp.dps == before


def test_to_mpf_conversions():
    assert to_mpf(3) == 3
    assert to_mpf("0.5") == mpf("0.5")
    assert to_mpf(Fraction(1, 4)) == mpf("0.25")
    assert abs(to_mpf(Fraction(1, 3)) - mpf(1) / 3) < mpf("1e-37")
