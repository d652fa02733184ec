from fractions import Fraction

import pytest
from mpmath import mp, mpf

from subexp.precision import DEFAULT_DPS, to_mpf


def test_default_precision_is_high():
    assert DEFAULT_DPS >= 30


def test_to_mpf_conversions():
    assert to_mpf(3) == 3
    assert to_mpf("0.5") == mpf("0.5")
    assert to_mpf(Fraction(1, 4)) == mpf("0.25")
    assert to_mpf(Fraction(1, 3)) == mp.fdiv(1, 3) == to_mpf("1/3")


@pytest.mark.parametrize("dps", (15, 38, 60))
def test_a_fraction_is_rounded_once_to_nearest(dps):
    # mpmath reads a Fraction rounded toward zero; to_mpf reads it as it
    # reads the str "p/q", rounded once, to nearest, as mp.fdiv(p, q) is
    big = 3 * 10**49 + 1  # 50 digits, past the mantissa at every dps here
    with mp.workdps(dps):
        for p, q in ((1, 3), (2, 3), (-1, 3), (1, 10), (22, 7), (big, 7), (-big, 3), (1, big)):
            assert to_mpf(Fraction(p, q)) == to_mpf(f"{p}/{q}") == mp.fdiv(p, q)
