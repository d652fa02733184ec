from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from oracles import (
    DELTA_ROOTS_10,
    DELTA_STANDARD_100,
    LHS_STANDARD_DELTA1,
    bisect_delta,
    initial_guess,
    tilt_equation_lhs,
)
from subexp import khintchine
from subexp.errors import (
    DomainError,
    InvalidParametersError,
    NoBracketError,
    NonConvergenceError,
)
from subexp.khintchine import _float_root, khintchine_lhs, solve_delta
from subexp.model import make_preset
from subexp.precision import to_mpf
from subexp.spectrum import INELIGIBLE, Pole, SpectralData, derive_spectrum, validate_spectrum

STD = derive_spectrum(make_preset("standard"))
ROOTS = derive_spectrum(make_preset("roots"))
CONG = derive_spectrum(make_preset("congruent", 2, 1))
PRESETS = (STD, ROOTS, CONG)
# the 47 presets of the benchmark sweep
ALL_PRESETS = [("standard",), ("roots",)] + [
    ("congruent", a, b) for a in range(2, 13) for b in range(1, a) if gcd(a, b) == 1
]


def residual_tolerance(n):
    """The residual bound solve_delta meets where lhs's terms do not cancel,
    1e-10 n."""
    return mpf("1e-10") * n


def test_lhs_standard_at_one():
    # (pi^2/6) - 1/2 + 1/24, frozen from the substitution oracle
    got = khintchine_lhs(STD, 1)
    assert abs(got - LHS_STANDARD_DELTA1) < mpf("1e-30")
    want = mp.pi**2 / 6 - mpf(1) / 2 + mpf(1) / 24
    assert abs(got - want) < mpf("1e-30")


def test_lhs_roots_at_one():
    want = 2 * 2 * mp.zeta(3) + mp.pi**2 / 6 - mpf(2) / 3 + ROOTS.d_neg[0]
    assert abs(khintchine_lhs(ROOTS, 1) - want) < mpf("1e-30")


def test_lhs_matches_literal_substitution():
    for sd in PRESETS:
        for delta in (mpf("0.05"), mpf("0.3"), mpf(2)):
            want = tilt_equation_lhs(
                [(p.rho, p.h) for p in sd.poles], sd.A0, sd.d_neg[0], delta
            )
            assert abs(khintchine_lhs(sd, delta) - want) < mpf("1e-30") * abs(want)


def test_lhs_limit_is_d_neg_1():
    for sd in PRESETS:
        assert abs(khintchine_lhs(sd, mpf("1e6")) - sd.d_neg[0]) < mpf("1e-5")


def test_lhs_rejects_nonpositive_delta():
    with pytest.raises(DomainError):
        khintchine_lhs(STD, 0)
    with pytest.raises(DomainError):
        khintchine_lhs(STD, -1)


def test_lhs_deriv_matches_difference_quotient():
    # the slope Newton uses, delta*lhs'(delta), over delta
    h = mpf("1e-12")
    for sd in PRESETS:
        for delta in (mpf("0.1"), mpf("0.8")):
            fd = (khintchine_lhs(sd, delta + h) - khintchine_lhs(sd, delta - h)) / (
                2 * h
            )
            got = mp.make_mpf(khintchine._lhs_and_slope(sd, delta._mpf_)[1]) / delta
            assert abs(got - fd) < mpf("1e-8") * abs(got)


def test_initial_guess_standard():
    z = initial_guess(STD, 100)
    want = mp.sqrt(100 / (mp.pi**2 / 6))
    assert abs(z - want) < mpf("1e-25")
    # rho_r = 1: quadrupling n doubles the guess
    assert abs(initial_guess(STD, 400) - 2 * z) < mpf("1e-24")


def test_initial_guess_roots_two_terms():
    z1 = (mpf(1000) / (2 * 2 * mp.zeta(3))) ** (mpf(1) / 3)
    z = initial_guess(ROOTS, 1000)
    # correction is order n^0; the leading term alone is off by O(1)
    assert abs(z - z1) < 1
    assert abs(z - z1) > mpf("0.01")
    # the derived sign must not lose to the plain leading term
    n = 1000
    err_guess = abs(khintchine_lhs(ROOTS, 1 / z) - n)
    err_leading = abs(khintchine_lhs(ROOTS, 1 / z1) - n)
    assert err_guess < err_leading
    # balancing both poles, rho = (1, 2) and h = (zeta(2), 2 zeta(3)), at
    # z = z1 (1 + eps) gives eps = -rho_1 h_1 z1^2 / ((rho_2+1) n)
    want = z1 * (1 - mp.zeta(2) * z1**2 / (3 * n))
    assert abs(z - want) < mpf("1e-30")


def test_solve_delta_against_bisection_oracle():
    want = bisect_delta([(p.rho, p.h) for p in STD.poles], STD.A0, STD.d_neg[0], 100)
    assert abs(want - DELTA_STANDARD_100) < mpf("1e-30")
    got = solve_delta(STD, 100).delta
    assert abs(got - want) < mpf("1e-12")
    want_r = bisect_delta(
        [(p.rho, p.h) for p in ROOTS.poles], ROOTS.A0, ROOTS.d_neg[0], 10
    )
    assert abs(want_r - DELTA_ROOTS_10) < mpf("1e-30")
    assert abs(solve_delta(ROOTS, 10).delta - want_r) < mpf("1e-12")


def test_residual_contract():
    for sd in PRESETS:
        for k in range(1, 9):
            n = 10**k
            sol = solve_delta(sd, n)
            assert abs(sol.residual) <= residual_tolerance(n)
            assert abs(khintchine_lhs(sd, sol.delta) - n) <= residual_tolerance(n)


def test_delta_monotone_and_n_delta_increasing():
    for sd in PRESETS:
        prev_delta = None
        prev_ndelta = None
        for k in range(1, 21):
            n = 2**k
            d = solve_delta(sd, n).delta
            if prev_delta is not None:
                assert d < prev_delta
                assert n * d > prev_ndelta
            prev_delta = d
            prev_ndelta = n * d


def test_two_term_expansion_gap_shrinks():
    # relative gap between 1/delta_n and the expansion shrinks >= 2x
    # when n grows 16-fold
    for sd in PRESETS:
        gaps = []
        for n in (100, 1600, 25600):
            z = 1 / solve_delta(sd, n).delta
            g = abs(z - initial_guess(sd, n)) / z
            gaps.append(g)
        assert gaps[1] <= gaps[0] / 2
        assert gaps[2] <= gaps[1] / 2


def test_solver_diagnostics():
    for sd in PRESETS:
        for n in (10, 1000, 10**6):
            sol = solve_delta(sd, n)
            lo, hi = sol.bracket
            assert lo < sol.delta < hi
            assert sol.iterations <= 200
            assert sol.newton_steps + sol.bisection_steps <= sol.iterations


def test_solve_delta_preconditions():
    with pytest.raises(InvalidParametersError):
        solve_delta(STD, 0)
    # n must exceed D(-1); D(-1)=1/24 for the standard model, so n >= 1 passes
    sol = solve_delta(STD, 1)
    assert sol.delta > 0
    for n in ("10", "x", True, False):  # "10" used to solve, True as n = 1
        with pytest.raises(InvalidParametersError,
                           match=f"need a number n >= 1; got {n!r}$"):
            solve_delta(STD, n)


@pytest.mark.parametrize("args", ALL_PRESETS, ids=lambda args: "-".join(map(str, args)))
def test_n_beyond_the_bracket_names_the_bound(args):
    # delta_n < BRACKET_MIN = 1e-12 once n >= lhs(1e-12): 1.645e24 for
    # standard, 4.808e36 for roots, 5.483e23 for congruent(3,1)
    sd = derive_spectrum(make_preset(*args))
    bound = tilt_equation_lhs([tuple(p) for p in sd.poles], sd.A0, sd.d_neg[0],
                              khintchine.BRACKET_MIN)
    assert solve_delta(sd, bound * mpf("0.999")).delta > khintchine.BRACKET_MIN
    with pytest.raises(NoBracketError, match="needs n < ") as info:
        solve_delta(sd, bound * mpf("1.001"))
    named = mpf(str(info.value).split("needs n < ")[1])
    assert abs(named / bound - 1) < mpf("1e-30")


def test_solve_delta_is_polished_to_half_precision():
    # the residual tolerance alone left delta off by ~5e-12 relative here
    for args, n in ((("roots",), 1000), (("congruent", 3, 1), 810)):
        sd = derive_spectrum(make_preset(*args))
        want = bisect_delta([(p.rho, p.h) for p in sd.poles], sd.A0, sd.d_neg[0], n)
        assert abs(solve_delta(sd, n).delta / want - 1) < mpf("1e-18")


@pytest.mark.parametrize("dps", (38, 60))
def test_solve_delta_is_accurate_to_1e_32(dps):
    # against a solve 40 digits higher on a spectrum derived there; the
    # polish's series step needs its s^2 term: delta*(1 + s) alone is off
    # by up to ~1.7e-31
    ns = (10, 37, 100, 1000, 12345, 10**5, 10**8)
    worst = mpf(0)
    for args in ALL_PRESETS:
        with mp.workdps(dps + 40):
            sd = derive_spectrum(make_preset(*args))
            want = [solve_delta(sd, n).delta for n in ns]
        with mp.workdps(dps):
            sd = derive_spectrum(make_preset(*args))
            got = [solve_delta(sd, n).delta for n in ns]
        with mp.workdps(dps + 40):
            worst = max([worst] + [abs(g / w - 1) for g, w in zip(got, want)])
    assert worst < mpf("1e-32"), mp.nstr(worst, 3)


@pytest.mark.parametrize("dps", (15, 20, 38, 60))
def test_newton_from_the_seed_needs_no_bisection(dps):
    with mp.workdps(dps):
        for args in ALL_PRESETS:
            sd = derive_spectrum(make_preset(*args))
            for n in [*range(2, 60), *(10**k for k in range(2, 9))]:
                sol = solve_delta(sd, n)
                assert sol.bisection_steps == 0, (args, n)
                assert sol.iterations <= 7, (args, n)
                assert abs(sol.residual) <= residual_tolerance(n), (args, n)


@pytest.mark.parametrize("dps, evals", ((15, 1), (20, 1), (38, 2), (60, 3)))
def test_float_seed_needs_few_working_precision_evaluations(dps, evals):
    with mp.workdps(dps):
        for args in ALL_PRESETS:
            sd = derive_spectrum(make_preset(*args))
            for n in [*range(2, 60), *(10**k for k in range(2, 9)),
                      *(3 * 10**k for k in range(2, 9))]:
                assert solve_delta(sd, n).iterations + 1 <= evals, (args, n)


def _one_pole(h, A0, d1, rho=1):
    return SpectralData("one pole", (Pole(mpf(rho), mpf(h)),), mpf(A0), mpf(0), (mpf(d1),))


# one pole at rho = 1 with A0^2 far above h (n - D(-1)), by 2.6e3 to 1.3e5
# at n = 100 down to 2: the quadratic's root loses up to 5 digits in the form
# that cancels, (A0 + S)/(2m) for A0 < 0 and 2h/(S - A0) for A0 > 0.  A
# larger A0 < 0 cancels in lhs itself, which then misses its residual test
# at 15 digits
LOPSIDED = (_one_pole(1, 2**9, 0), _one_pole(1, -(2**9), 0))


@pytest.mark.parametrize("dps", (15, 38, 60, 100))
def test_one_pole_delta_is_exact_to_the_working_precision(dps):
    # the 46 presets with one pole at rho = 1, against a solve 40 digits
    # higher on a spectrum derived there
    ns = (2, 10, 37, 100, 1000, 12345, 10**5, 10**8)
    one_pole = [("standard",)] + ALL_PRESETS[2:]
    cases = []
    for args in one_pole:
        with mp.workdps(dps + 40):
            want = [solve_delta(derive_spectrum(make_preset(*args)), n).delta for n in ns]
        with mp.workdps(dps):
            sd = derive_spectrum(make_preset(*args))
            cases += [(args, n, solve_delta(sd, n).delta, w) for n, w in zip(ns, want)]
    for sd in LOPSIDED:
        with mp.workdps(dps + 40):
            want = [solve_delta(sd, n).delta for n in ns[:4]]
        with mp.workdps(dps):
            cases += [(sd.A0, n, solve_delta(sd, n).delta, w) for n, w in zip(ns[:4], want)]
    with mp.workdps(dps):
        bound = mpf(2) ** (4 - mp.prec)
    with mp.workdps(dps + 40):
        for key, n, got, want in cases:
            assert abs(got / want - 1) <= bound, (key, n, mp.nstr(got / want - 1, 3))


@pytest.mark.parametrize("dps", (15, 38))
@pytest.mark.parametrize("h, A0, n", [(1, -(2**30), 2), (2**30, -(2**69), 2.1)])
def test_cancelling_one_pole_spectrum_takes_the_closed_form_root(h, A0, n, dps):
    # A0 < 0 and A0^2 >> h n: at the root lhs's terms h/delta^2 and A0/delta
    # are both about A0^2/h, 2^60 and 2^108 here, so F = lhs - n carries
    # their rounding: at the closed-form root F is -2 at 15 digits on the
    # first spectrum and -9.5e-8 at 38 digits on the second, far above
    # 1e-10 n but within 1e-10 of the terms' summed size (at n = 2 the
    # second's F is 0 by luck).  That root is exact to a few ulps, and
    # solve_delta returns it with no step
    sd = _one_pole(h, A0, 0)
    with mp.workdps(dps + 40):
        want = solve_delta(sd, n).delta
    with mp.workdps(dps):
        sol = solve_delta(sd, n)
        bound = mpf(2) ** (4 - mp.prec)
    assert (sol.newton_steps, sol.bisection_steps) == (0, 0)
    with mp.workdps(dps + 40):
        assert abs(sol.delta / want - 1) <= bound


@pytest.mark.parametrize("dps", (15, 38))
def test_cancelling_two_pole_spectrum_meets_the_scaled_residual_test(dps):
    # A0 = -2^30 against poles of residue 1: at the root (delta near 2^-30)
    # the terms A0/delta and h/delta^2 are both about 2^60 and cancel to
    # n = 2, so |F| carries their rounding, far above 1e-10 n at 15 digits,
    # but within 1e-10 of the terms' summed size
    sd = SpectralData("x", ((0.5, 1), (1, 1)), -(2**30), 0, (0,))
    with mp.workdps(dps + 40):
        want = solve_delta(sd, 2).delta
    with mp.workdps(dps):
        got = solve_delta(sd, 2).delta
        bound = mpf(2) ** (-mp.prec / 2)
    with mp.workdps(dps + 40):
        assert abs(got / want - 1) <= bound


def test_steep_pole_at_low_precision_does_not_converge():
    # rho = 1e8: at 15 digits one ulp of delta moves lhs by about
    # rho * 2^-53 * n, about 1e-8 n, so the residual test 1e-10 max(n, S)
    # cannot be met (lhs has one term, so S = n: the fault is conditioning,
    # not cancellation), and the polish loop stops after MAX_ITER steps
    # with the root bracketed.  At 38 digits one Newton step meets it
    sd = _one_pole(1, 0, 0, rho="1e8")
    with mp.workdps(15), pytest.raises(
        NonConvergenceError, match=rf"after {khintchine.MAX_ITER} iterations for n=10"
    ):
        solve_delta(sd, 10)
    with mp.workdps(38):
        assert solve_delta(sd, 10).newton_steps == 1


def _solve_via_fallback(monkeypatch, sd, n):
    """solve_delta, asserting that the float phase hands over and that the
    fallback seeds from the leading term (at rho = 1 from the quadratic's
    root) without a khintchine_lhs call (as a sign choice between two-term
    expansions would make)."""
    calls = []

    def spy(sd, delta):
        calls.append(delta)
        return khintchine_lhs(sd, delta)

    assert _float_root(sd, to_mpf(n)) is None
    monkeypatch.setattr(khintchine, "khintchine_lhs", spy)
    try:
        return solve_delta(sd, n)
    finally:
        assert calls == []


def _assert_power_law_root(sol, sd, n):
    # A0 = D(-1) = 0 and one pole: delta_n = (rho h / n)^(1/(rho+1))
    (rho, h), = sd.poles
    want = (rho * h / to_mpf(n)) ** (1 / (rho + 1))
    assert abs(sol.delta / want - 1) < mpf("1e-18")
    assert abs(sol.residual) <= residual_tolerance(n)


def test_float_phase_hands_over_when_a_residue_is_out_of_float_range(monkeypatch):
    # h rounds to 0.0 (roots near 1.9e-10) or to inf (near 4.5e9) as a float
    for h, n in (("1e-400", 1), ("1e400", 10**6)):
        sd = _one_pole(h, 0, 0, rho=40)
        _assert_power_law_root(_solve_via_fallback(monkeypatch, sd, n), sd, n)


def test_float_phase_hands_over_when_n_is_out_of_float_range(monkeypatch):
    sd = _one_pole(1, 0, 0, rho=40)
    _assert_power_law_root(_solve_via_fallback(monkeypatch, sd, 10**400), sd, 10**400)


def test_float_phase_hands_over_on_overflow(monkeypatch):
    # the slope (rho+1) h rho delta^(-rho-1) ~ 4e308 overflows at the root
    sd = _one_pole(1, 0, 0, rho=40)
    _assert_power_law_root(_solve_via_fallback(monkeypatch, sd, 10**307), sd, 10**307)
    # and a pole's term underflows: rho = 30 gives 30 delta^-31 = 0.0 as the
    # float iterates near the root delta = 1e11, which the rho = 1 pole sets
    sd = SpectralData("u", ((1, "1e22"), (30, 1)), 0, 0, (0,))
    sol = _solve_via_fallback(monkeypatch, sd, 1)
    assert abs(sol.delta / mpf("1e11") - 1) < mpf("1e-18")
    assert (sol.newton_steps, sol.bisection_steps) == (2, 0)


def test_float_phase_hands_over_when_it_does_not_converge(monkeypatch):
    want = solve_delta(ROOTS, 1000).delta
    monkeypatch.setattr(khintchine, "FLOAT_MAX_ITER", 1)
    sol = _solve_via_fallback(monkeypatch, ROOTS, 1000)
    assert abs(sol.delta / want - 1) < mpf("1e-18")


def test_root_outside_the_bracket_raises(monkeypatch):
    # root and seed at delta = 1e-15
    with pytest.raises(NoBracketError):
        _solve_via_fallback(monkeypatch, _one_pole("1e-30", 0, 0), 1)
    # root near A0/(n - D(-1)) = 1e13: at rho = 1 the seed is that root; at
    # rho = 2 the float iterates leave the bracket, and the loop from the
    # seed 2^(1/3) finds no sign change in it
    one_pole = lambda rho: _one_pole(1, "1e-7", 1 - mpf("1e-20"), rho)
    with pytest.raises(NoBracketError, match="^seed delta=1000000999999"):
        _solve_via_fallback(monkeypatch, one_pole(1), 1)
    with pytest.raises(NoBracketError, match=r"^no root in \[1.0e-12, "):
        _solve_via_fallback(monkeypatch, one_pole(2), 1)


def test_flat_seed_falls_back_to_bisection(monkeypatch):
    # lhs = 2 delta^-3 - 6/delta is -4 at the float seed delta = 1 for n = 2,
    # and has zero slope there; the root solves delta^3 + 3 delta^2 = 1,
    # so delta + 1 = 2 cos(2 pi/9)
    sol = _solve_via_fallback(monkeypatch, _one_pole(1, -6, 0, rho=2), 2)
    assert sol.bisection_steps >= 1
    assert sol.iterations <= 20
    assert abs(sol.delta - (2 * mp.cos(2 * mp.pi / 9) - 1)) < mpf("1e-18")


@st.composite
def eligible_spectra(draw):
    """1-3 poles with 2 rho_{r-1} <= rho_r, positive residues, A0 >= 0 (so
    lhs decreases) and |D(-1)| <= 1; roots stay inside bisect_delta's
    [1e-6, 10] for 10 <= n <= 1e6."""
    r = draw(st.integers(1, 3))
    rhos = [draw(st.floats(0.5, 4))]
    for shrink in ((0.1, 0.5), (0.1, 0.9))[: r - 1]:
        rhos.insert(0, rhos[0] * draw(st.floats(*shrink)))
    poles = tuple(Pole(mpf(rho), mpf(draw(st.floats(0.1, 10)))) for rho in rhos)
    A0, d1 = draw(st.floats(0, 2)), draw(st.floats(-1, 1))
    return SpectralData("drawn", poles, mpf(A0), mpf(0), (mpf(d1),))


@pytest.mark.parametrize("dps", (15, 38, 60))
@settings(max_examples=20, deadline=None)
@given(sd=eligible_spectra())
def test_random_spectra_meet_the_solver_contract(dps, sd):
    assert validate_spectrum(sd) != INELIGIBLE
    ns = (10, 100, 10**4, 10**6)
    with mp.workdps(dps):
        deltas = [solve_delta(sd, n) for n in ns]
        for n, sol in zip(ns, deltas):
            assert abs(sol.residual) <= residual_tolerance(n), n
        assert all(a.delta > b.delta for a, b in zip(deltas, deltas[1:]))
        if dps == 38:
            poles = [(p.rho, p.h) for p in sd.poles]
            for n, sol in zip(ns, deltas):
                want = bisect_delta(poles, sd.A0, sd.d_neg[0], n)
                assert abs(sol.delta / want - 1) < mpf("1e-18"), n
