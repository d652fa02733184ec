import random

import pytest
from mpmath import mp, mpf

from oracles import zeta_direct, zeta_fd_deriv
from subexp.errors import DomainError, PoleError, UnsupportedPointError
from subexp.specfun import (
    euler_gamma,
    hurwitz_zeta,
    hurwitz_zeta_deriv,
    log_gamma,
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


def test_zeta_pole_and_domain():
    with pytest.raises(PoleError):
        riemann_zeta(1)
    with pytest.raises(PoleError):
        riemann_zeta(1 + 1e-10)
    with pytest.raises(DomainError):
        riemann_zeta(41)
    with pytest.raises(DomainError):
        riemann_zeta(-22)


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


def test_zeta_deriv_unsupported_point():
    with pytest.raises(UnsupportedPointError):
        riemann_zeta_deriv(0.5)
    with pytest.raises(UnsupportedPointError):
        riemann_zeta_deriv(2)


def test_hurwitz_reduces_to_riemann():
    rng = random.Random(1735)
    for _ in range(50):
        s = mpf(rng.uniform(-10, 40))
        if abs(s - 1) < 0.01:
            continue
        a = hurwitz_zeta(s, 1)
        b = riemann_zeta(s)
        assert abs(a - b) <= mpf("1e-12") * max(abs(b), mpf(1))


def test_hurwitz_at_zero_is_half_minus_q():
    for i in range(1, 11):
        q = mpf(i) / 10
        assert abs(hurwitz_zeta(0, q) - (mpf(1) / 2 - q)) < mpf("1e-13")


def test_hurwitz_domain():
    with pytest.raises(PoleError):
        hurwitz_zeta(1, 0.5)
    with pytest.raises(DomainError):
        hurwitz_zeta(-22, 0.5)
    with pytest.raises(DomainError):
        hurwitz_zeta(2, 0)
    with pytest.raises(DomainError):
        hurwitz_zeta(2, 1.5)


def test_hurwitz_deriv0_lerch():
    for q in (mpf(1), mpf(1) / 2, mpf(1) / 3, mpf("0.77")):
        want = log_gamma(q) - mp.log(2 * mp.pi) / 2
        assert abs(hurwitz_zeta_deriv(0, q) - want) < mpf("1e-12")
    assert abs(hurwitz_zeta_deriv(0, mpf(1) / 2) + mp.log(2) / 2) < mpf("1e-12")
    with pytest.raises(DomainError):
        hurwitz_zeta_deriv(0, 0)


def test_hurwitz_deriv_away_from_zero():
    # zeta'(-1, 1) = zeta'(-1) = 1/12 - log A, the Glaisher-Kinkelin
    # constant; the closed form agrees with mpmath's numerical derivative
    want = mpf(1) / 12 - mp.log(mp.glaisher)
    assert abs(hurwitz_zeta_deriv(-1, 1) - want) < mpf("1e-30")
    assert abs(mp.zeta(-1, 1, 1) - want) < mpf("1e-30")
    for s, q in ((-3, mpf(1) / 3), (2, mpf("0.7"))):
        want = zeta_fd_deriv(s, q=q)
        assert abs(hurwitz_zeta_deriv(s, q) - want) < mpf("1e-18") * abs(want)


def test_hurwitz_deriv_shares_the_domain():
    with pytest.raises(PoleError):
        hurwitz_zeta_deriv(1, 0.5)
    for s, q in ((-22, 0.5), (41, 0.5), (-1, 0), (-1, 1.5)):
        with pytest.raises(DomainError):
            hurwitz_zeta_deriv(s, q)
    assert hurwitz_zeta_deriv(-21, 0.5) == mp.zeta(-21, 0.5, 1)


def test_log_gamma_values_and_recurrence():
    assert abs(log_gamma(1)) < mpf("1e-30")
    assert abs(log_gamma(2)) < mpf("1e-30")
    assert abs(log_gamma(mpf(1) / 2) - mp.log(mp.pi) / 2) < mpf("1e-12")
    for x in (mpf("0.25"), mpf("0.5"), mpf("1.5"), mpf("3.7")):
        lhs = mp.exp(log_gamma(x + 1))
        rhs = x * mp.exp(log_gamma(x))
        assert abs(lhs - rhs) < mpf("1e-12") * abs(rhs)
    with pytest.raises(DomainError):
        log_gamma(0)
    with pytest.raises(DomainError):
        log_gamma(-1)


def test_constants():
    # gamma = lim H_n - log n, checked coarsely against the defining limit
    n = 200000
    harmonic = mp.fsum(mpf(1) / k for k in range(1, n + 1))
    approx = harmonic - mp.log(n)
    assert abs(euler_gamma() - approx) < mpf("1e-5")
    assert abs(euler_gamma() - mpf("0.57721566490153286")) < mpf("1e-16")
    # zeta'(-1) ties log(glaisher) to an independent finite difference
    assert abs(
        mp.log(mp.glaisher) - (mpf(1) / 12 - zeta_fd_deriv(-1))
    ) < mpf("1e-18")
