from fractions import Fraction

import pytest
from mpmath import mp, mpf

from oracles import zeta_direct, zeta_fd_deriv
from subexp.specfun import (
    hurwitz_zeta_exact,
    hurwitz_zeta_deriv,
    riemann_zeta,
    riemann_zeta_deriv,
)


def test_result_type_records_precision():
    r = riemann_zeta(2)
    assert isinstance(r, mpf)
    assert float(r) == pytest.approx(1.6449340668482264)


def test_zeta_closed_forms():
    assert abs(riemann_zeta(2) - mp.pi**2 / 6) < mpf("1e-13") * (mp.pi**2 / 6)
    assert abs(riemann_zeta(4) - mp.pi**4 / 90) < mpf("1e-13") * (mp.pi**4 / 90)
    assert abs(riemann_zeta(0) + mpf(1) / 2) < mpf("1e-13")
    assert abs(riemann_zeta(-1) + mpf(1) / 12) < mpf("1e-13")


def test_zeta_against_direct_summation():
    for s in (mpf(2), mpf(3), mpf("2.5"), mpf(6)):
        want = zeta_direct(s)
        got = riemann_zeta(s)
        assert abs(got - want) < mpf("1e-14") * abs(want)


def test_zeta_deriv_closed_forms_vs_finite_difference():
    want0 = zeta_fd_deriv(0)
    want1 = zeta_fd_deriv(-1)
    assert abs(riemann_zeta_deriv(0) - want0) < mpf("1e-18")
    assert abs(riemann_zeta_deriv(-1) - want1) < mpf("1e-18")
    # and the printed forms themselves
    assert abs(riemann_zeta_deriv(0) + mp.log(2 * mp.pi) / 2) < mpf("1e-12")
    assert abs(
        riemann_zeta_deriv(-1) - (mpf(1) / 12 - mp.log(mp.glaisher))
    ) < mpf("1e-12")


def test_exact_hurwitz_matches_mpmath():
    # every m in [-21, 0] and q = r/a with 1 <= r <= a <= 12; B_N(q) = 0
    # exactly at q = 1/2 for odd N and at q = 1 for odd N >= 3
    with mp.workdps(60):
        for m in range(-21, 1):
            N = 1 - m
            for a in range(1, 13):
                for r in range(1, a + 1):
                    q = Fraction(r, a)
                    got = hurwitz_zeta_exact(m, q)
                    assert isinstance(got, Fraction)
                    if N % 2 and (q == Fraction(1, 2) or (q == 1 and N >= 3)):
                        assert got == 0
                        continue
                    want = mp.zeta(m, mpf(r) / a)
                    err = mpf(got.numerator) / got.denominator - want
                    assert abs(err) <= mpf("1e-35") * abs(want)
    assert hurwitz_zeta_exact(-1, 1) == Fraction(-1, 12)
    assert hurwitz_zeta_exact(0, Fraction(1, 3)) == Fraction(1, 6)


def test_hurwitz_deriv0_lerch():
    for q in (mpf(1), mpf(1) / 2, mpf(1) / 3, mpf("0.77")):
        want = mp.loggamma(q) - mp.log(2 * mp.pi) / 2
        assert abs(hurwitz_zeta_deriv(0, q) - want) < mpf("1e-12")
    assert abs(hurwitz_zeta_deriv(0, mpf(1) / 2) + mp.log(2) / 2) < mpf("1e-12")


def test_hurwitz_deriv_away_from_zero():
    # zeta'(-1, 1) = zeta'(-1) = 1/12 - log A, the Glaisher-Kinkelin
    # constant; the closed form agrees with mpmath's numerical derivative
    want = mpf(1) / 12 - mp.log(mp.glaisher)
    assert abs(hurwitz_zeta_deriv(-1, 1) - want) < mpf("1e-30")
    assert abs(mp.zeta(-1, 1, 1) - want) < mpf("1e-30")
    for s, q in ((-3, mpf(1) / 3), (2, mpf("0.7"))):
        want = zeta_fd_deriv(s, q=q)
        assert abs(hurwitz_zeta_deriv(s, q) - want) < mpf("1e-18") * abs(want)
    assert hurwitz_zeta_deriv(-21, 0.5) == mp.zeta(-21, 0.5, 1)
    # away from 0 and -1, zeta' is mpmath's numerical derivative
    for s in (mpf("0.5"), mpf(2), mpf(-3)):
        assert riemann_zeta_deriv(s) == mp.zeta(s, 1, 1)


def test_constants():
    # zeta'(-1) ties log(glaisher) to an independent finite difference
    assert abs(
        mp.log(mp.glaisher) - (mpf(1) / 12 - zeta_fd_deriv(-1))
    ) < mpf("1e-18")
