"""End-to-end acceptance checks.

Nine headline guarantees, one test each, every tolerance and runtime
budget stated inline.  Each test prints a single summary line on
success (run with -s or -rA to see them); a failing guarantee fails its
test outright.
"""

import time

from mpmath import mp, mpf

from oracles import distinct_dp, hardy_ramanujan_log
from subexp.asymptotics import (
    kappa,
    log_estimate_explicit,
    log_estimate_khintchine,
    q_constant,
)
from subexp.exact import exact_coefficients, pentagonal_oracle, product_dp
from subexp.khintchine import initial_guess, khintchine_lhs, solve_delta
from subexp.model import make_preset
from subexp.spectrum import CRITICAL, derive_spectrum, validate_spectrum
from subexp.specfun import hurwitz_zeta, riemann_zeta, riemann_zeta_deriv

STD_MODEL = make_preset("standard")
ROOTS_MODEL = make_preset("roots")
CONG_MODEL = make_preset("congruent", 2, 1)
STD = derive_spectrum(STD_MODEL)
ROOTS = derive_spectrum(ROOTS_MODEL)
CONG = derive_spectrum(CONG_MODEL)


def _ratio(exact_value, log_estimate):
    return mp.exp(mp.log(mpf(exact_value)) - log_estimate.log_value)


def test_criterion_1_exact_counting_triple_redundant():
    t0 = time.monotonic()
    for model in (STD_MODEL, ROOTS_MODEL, CONG_MODEL):
        rec = exact_coefficients(model, 500)
        dp = product_dp(model, 500)
        assert rec.coeffs == dp.coeffs, f"recurrence != product for {model.kind}"
    rec = exact_coefficients(STD_MODEL, 2000)
    dp = product_dp(STD_MODEL, 2000)
    pent = pentagonal_oracle(2000)
    assert rec.coeffs == pent.coeffs
    assert dp.coeffs == pent.coeffs
    assert rec[10] == 42
    assert rec[100] == 190569292
    elapsed = time.monotonic() - t0
    assert elapsed <= 60
    print(
        f"criterion 1 PASS: three algorithms agree exactly (presets to N=500, "
        f"standard to N=2000, c_10=42, c_100=190569292) in {elapsed:.1f}s"
    )


def test_criterion_2_hardy_ramanujan_collapse():
    t0 = time.monotonic()
    worst = mpf(0)
    for n in (10, 100, 1000):
        gap = abs(log_estimate_explicit(STD, n).log_value - hardy_ramanujan_log(n))
        worst = max(worst, gap)
        assert gap < mpf("1e-10"), f"n={n}: gap {gap}"
    elapsed = time.monotonic() - t0
    assert elapsed < 1
    print(
        f"criterion 2 PASS: explicit formula collapses to the leading "
        f"Hardy-Ramanujan term (worst gap {mp.nstr(worst, 3)}) in {elapsed:.2f}s"
    )


def test_criterion_3_ratio_convergence_standard():
    t0 = time.monotonic()
    series = exact_coefficients(STD_MODEL, 1600)
    dev = {
        n: abs(_ratio(series[n], log_estimate_explicit(STD, n)) - 1)
        for n in (100, 200, 400, 800, 1000, 1600)
    }
    assert dev[100] <= mpf("0.06")
    assert dev[1000] <= mpf("0.02")
    grid = [100, 200, 400, 800, 1600]
    assert all(dev[b] < dev[a] for a, b in zip(grid, grid[1:]))
    elapsed = time.monotonic() - t0
    assert elapsed <= 60
    print(
        f"criterion 3 PASS: standard |ratio-1| = {mp.nstr(dev[100], 3)} at "
        f"n=100, {mp.nstr(dev[1000], 3)} at n=1000, strictly decreasing over "
        f"{grid} in {elapsed:.1f}s"
    )


def test_criterion_4_roots_constants():
    t0 = time.monotonic()
    tol = mpf("1e-12")
    assert abs(ROOTS.A0 + mpf(2) / 3) < tol
    assert abs(ROOTS.poles[0].h - mp.pi**2 / 6) < tol
    assert abs(ROOTS.poles[1].h - 2 * mp.zeta(3)) < tol
    report = validate_spectrum(ROOTS)
    assert report.classification == CRITICAL
    assert abs(report.gap) < tol
    assert abs(kappa(ROOTS) + mpf(8) / 9) < tol
    correction = ROOTS.h0 - q_constant(ROOTS)
    want = (mp.pi**2 / 6) ** 2 / (24 * mp.zeta(3))
    assert abs(correction - want) < tol
    elapsed = time.monotonic() - t0
    assert elapsed < 1
    print(
        "criterion 4 PASS: roots constants A0=-2/3, h1=zeta(2), h2=2zeta(3), "
        f"critical, kappa=-8/9, Q-correction zeta(2)^2/(24 zeta(3)), "
        f"all to 1e-12, in {elapsed:.2f}s"
    )


def test_criterion_5_roots_convergence():
    t0 = time.monotonic()
    series = exact_coefficients(ROOTS_MODEL, 1000)
    grid = [125, 250, 500, 1000]
    dev = {n: abs(_ratio(series[n], log_estimate_explicit(ROOTS, n)) - 1)
           for n in grid}
    assert all(dev[b] < dev[a] for a, b in zip(grid, grid[1:]))
    log_gap = abs(
        mp.log(mpf(series[1000])) - log_estimate_explicit(ROOTS, 1000).log_value
    )
    assert log_gap <= mpf("0.5")
    elapsed = time.monotonic() - t0
    assert elapsed <= 120
    print(
        f"criterion 5 PASS: roots |ratio-1| decreasing over {grid} "
        f"({mp.nstr(dev[125], 3)} -> {mp.nstr(dev[1000], 3)}), |log gap| = "
        f"{mp.nstr(log_gap, 3)} at n=1000, in {elapsed:.1f}s"
    )


def test_criterion_6_congruent_parts():
    t0 = time.monotonic()
    series = exact_coefficients(CONG_MODEL, 1600)
    assert list(series.coeffs[:501]) == distinct_dp(500)
    for n in (10, 1000, 10**6):
        expo = log_estimate_explicit(CONG, n).terms["exponent_sum"]
        want = mp.pi * mp.sqrt(mpf(2 * n) / (3 * 2))
        assert abs(expo - want) <= mpf("1e-12") * want
    grid = [100, 200, 400, 800, 1600]
    dev = {n: abs(_ratio(series[n], log_estimate_explicit(CONG, n)) - 1)
           for n in grid}
    assert all(dev[b] < dev[a] for a, b in zip(grid, grid[1:]))
    elapsed = time.monotonic() - t0
    assert elapsed <= 60
    print(
        "criterion 6 PASS: congruent(2,1) counts match the distinct-part "
        f"oracle to N=500, exponent = pi*sqrt(2n/(3a)) to 1e-12, |ratio-1| "
        f"decreasing over {grid}, in {elapsed:.1f}s"
    )


def test_criterion_7_formula_agreement():
    t0 = time.monotonic()
    worst = mpf(0)
    for name, sd in (("standard", STD), ("roots", ROOTS), ("congruent", CONG)):
        gaps = []
        for k in (3, 4, 5, 6):
            n = 10**k
            gap = abs(
                log_estimate_explicit(sd, n).log_value
                - log_estimate_khintchine(sd, n).log_value
            )
            gaps.append(gap)
        assert all(b < a for a, b in zip(gaps, gaps[1:])), f"{name}: {gaps}"
        assert gaps[-1] <= mpf("0.05"), f"{name} at n=1e6: {gaps[-1]}"
        worst = max(worst, gaps[-1])
    elapsed = time.monotonic() - t0
    assert elapsed < 5
    print(
        f"criterion 7 PASS: |explicit - khintchine| decreasing over n=1e3..1e6 "
        f"for all presets, worst at 1e6 = {mp.nstr(worst, 3)}, in {elapsed:.1f}s"
    )


def test_criterion_8_solver_contract():
    t0 = time.monotonic()
    for name, sd in (("standard", STD), ("roots", ROOTS), ("congruent", CONG)):
        prev_delta = None
        for k in range(1, 9):
            n = 10**k
            sol = solve_delta(sd, n)
            tol = max(mpf("1e-10") * n, mpf("1e-12"))
            assert abs(sol.residual) <= tol, f"{name} n={n}: {sol.residual}"
            assert abs(khintchine_lhs(sd, sol.delta) - n) <= tol
            if prev_delta is not None:
                assert sol.delta < prev_delta
            prev_delta = sol.delta
        gaps = []
        for n in (100, 1600, 25600):
            z = 1 / solve_delta(sd, n).delta
            gaps.append(abs(z - initial_guess(sd, n)) / z)
        assert gaps[1] <= gaps[0] / 2, f"{name}: {gaps}"
        assert gaps[2] <= gaps[1] / 2, f"{name}: {gaps}"
    elapsed = time.monotonic() - t0
    assert elapsed < 5
    print(
        "criterion 8 PASS: solver residual within max(1e-10*n, 1e-12) for "
        f"n=10..1e8, delta decreasing, expansion gap shrinks >= 2x per 16x n, "
        f"in {elapsed:.1f}s"
    )


def test_criterion_9_special_function_constants():
    t0 = time.monotonic()
    assert abs(riemann_zeta(2) - mp.pi**2 / 6) <= mpf("1e-13") * (mp.pi**2 / 6)
    assert abs(riemann_zeta(4) - mp.pi**4 / 90) <= mpf("1e-13") * (mp.pi**4 / 90)
    for a in range(1, 11):
        for b in range(1, a + 1):
            q = mpf(b) / a
            assert abs(hurwitz_zeta(0, q) - (mpf(1) / 2 - q)) <= mpf("1e-13")
    assert abs(riemann_zeta_deriv(0) + mp.log(2 * mp.pi) / 2) <= mpf("1e-12")
    assert abs(
        riemann_zeta_deriv(-1) - (mpf(1) / 12 - mp.log(mp.glaisher))
    ) <= mpf("1e-12")
    elapsed = time.monotonic() - t0
    assert elapsed < 5
    print(
        "criterion 9 PASS: zeta(2), zeta(4), zeta(0,b/a) for a<=10, zeta'(0), "
        f"zeta'(-1) reproduce their closed forms, in {elapsed:.1f}s"
    )
