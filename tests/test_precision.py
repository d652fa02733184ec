from fractions import Fraction

from mpmath import mpf

from subexp.precision import DEFAULT_DPS, to_mpf


def test_default_precision_is_high():
    assert DEFAULT_DPS >= 30


def test_to_mpf_conversions():
    assert to_mpf(3) == 3
    assert to_mpf("0.5") == mpf("0.5")
    assert to_mpf(Fraction(1, 4)) == mpf("0.25")
    assert abs(to_mpf(Fraction(1, 3)) - mpf(1) / 3) < mpf("1e-37")
