"""The estimate pair against its formulas as plain mpf expressions.

khintchine and asymptotics evaluate the tilt equation, the solver's
polish loop, the correction series and both estimates on raw libmp values.
Every result must equal (==, so bit for bit) what the mpf expressions in
tests/oracles.py give, at several working precisions.
"""

import random
import warnings

import pytest
from mpmath import mp, mpf
from mpmath.libmp import mpf_pow

from oracles import (
    explicit_estimate_mpf,
    float_root_mpf,
    khintchine_estimate_mpf,
    lhs_and_slope_mpf,
    q_constant_mpf,
    remainder_delta_mpf,
    solve_delta_mpf,
)
from subexp import asymptotics, khintchine
from subexp.errors import SubexpError, TruncationWarning
from subexp.model import make_preset
from subexp.spectrum import Pole, SpectralData, derive_spectrum, load_custom_spectrum
from test_khintchine import ALL_PRESETS, _one_pole

BRACKET = (khintchine.BRACKET_MIN, khintchine.BRACKET_MAX)
DPS = (15, 38, 60)
NS = (10, 37, 100, 999, 10**4, 123457, 10**8)

# spectra derived at the default 38 digits
SPECTRA_38 = {args: derive_spectrum(make_preset(*args))
              for args in (("standard",), ("roots",), ("congruent", 3, 1))}

# the spectra and n of test_khintchine's float-phase hand-over tests: the
# float phase gives up, so the polish loop starts from the mpf leading term
# (and, for the last, bisects); at rho = 1 (the three before the last) the
# seed is the quadratic's root instead
ONE_POLE_CASES = (
    (("1e-400", 0, 0, 40), 1),
    (("1e400", 0, 0, 40), 10**6),
    ((1, 0, 0, 40), 10**400),
    ((1, 0, 0, 40), 10**307),
    (("1e-30", 0, 0), 1),
    ((1, "1e-7", 1 - mpf("1e-20")), 1),
    ((1, -2, 0), 1),
    ((1, -6, 0, 2), 2),
)

# A0 = -2^30 against residues of 1: at the root lhs's terms are about 2^60
# and cancel to n = 2, so at 15 digits |F| passes 1e-10 n and the stop test
# forms the terms' summed size; two poles, then the one-pole closed form
CANCELLING = (SpectralData("x", ((0.5, 1), (1, 1)), -(2**30), 0, (0,)),
              _one_pole(1, -(2**30), 0))


def _outcome(f, *args):
    """f(*args), or the fact that it raised."""
    try:
        return f(*args)
    except (SubexpError, ValueError):
        return "raised"


def _library_solution(sd, n):
    sol = _outcome(khintchine.solve_delta, sd, n)
    return sol if sol == "raised" else tuple(sol)


def _library_estimate(estimate, sd, n):
    le = _outcome(estimate, sd, n)
    return le if le == "raised" else (le.log_value, le.terms)


def _assert_series_matches(sd, tau):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationWarning)
        got = asymptotics.remainder_delta(sd, tau)
    want, truncated = remainder_delta_mpf(sd, tau, asymptotics.DELTA_SERIES_TOL)
    assert got == want
    assert len(caught) == truncated


def _assert_pair_matches(sd, n):
    sol = _library_solution(sd, n)
    assert sol == _outcome(solve_delta_mpf, sd, n, BRACKET), (sd.label, n)
    if sol != "raised":
        delta = sol[0]
        assert khintchine._lhs_and_slope(sd, delta._mpf_) == tuple(
            v._mpf_ for v in lhs_and_slope_mpf(sd, delta))
        if delta < 1:
            _assert_series_matches(sd, delta)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        kh = _library_estimate(asymptotics.log_estimate_khintchine, sd, n)
        want = _outcome(khintchine_estimate_mpf, sd, n, BRACKET, asymptotics.DELTA_SERIES_TOL)
    assert kh == want, (sd.label, n)
    Q = _outcome(asymptotics.q_constant, sd)
    ex = _library_estimate(asymptotics.log_estimate_explicit, sd, n)
    assert ex == ("raised" if Q == "raised" else explicit_estimate_mpf(sd, n, Q)), (sd.label, n)


@pytest.mark.parametrize("dps", DPS)
def test_estimates_equal_the_mpf_formulas_on_every_preset(dps):
    with mp.workdps(dps):
        for args in ALL_PRESETS:
            sd = derive_spectrum(make_preset(*args))
            for n in NS:
                _assert_pair_matches(sd, n)


@pytest.mark.parametrize("dps", DPS)
def test_estimates_equal_the_mpf_formulas_off_their_spectrum_precision(dps):
    # spectra derived at 38 digits, used at another precision: fields
    # wider or narrower than the working precision enter unrounded
    with mp.workdps(dps):
        for args in (("standard",), ("roots",), ("congruent", 3, 1)):
            for n in NS:
                _assert_pair_matches(SPECTRA_38[args], n)


@pytest.mark.parametrize("dps", DPS)
def test_the_float_fallback_and_bisection_equal_the_mpf_formulas(dps):
    with mp.workdps(dps):
        for spec, n in ONE_POLE_CASES:
            sd = _one_pole(*spec)
            assert khintchine._float_root(sd, mpf(n)) is None
            assert float_root_mpf(sd, mpf(n), BRACKET) is None
            assert _library_solution(sd, n) == _outcome(solve_delta_mpf, sd, n, BRACKET)


@pytest.mark.parametrize("dps", DPS)
def test_cancelling_spectra_equal_the_mpf_formulas(dps):
    with mp.workdps(dps):
        for sd in CANCELLING:
            _assert_pair_matches(sd, 2)
            if dps == 15:
                assert abs(_library_solution(sd, 2)[1]) > mpf("1e-10") * 2


# poles at rho = 2 alone, whose cubic has no y^2 term, and at 1 and 2 with
# A0 = -100, whose cubic has three real roots below about n = 270, where
# the seed falls back to the float phase and then to the leading term
CUBIC_SPECTRA = (SpectralData("rho = 2", ((2, "1.2"),), "-0.3", "-0.5", ("0.04", "-0.01")),
                 SpectralData("three real roots", ((1, 1), (2, 1)), -100, 0, (0,)))


@pytest.mark.parametrize("dps", DPS)
def test_cubic_seeds_and_their_fallback_equal_the_mpf_formulas(dps):
    with mp.workdps(dps):
        for sd in CUBIC_SPECTRA:
            for n in NS:
                _assert_pair_matches(sd, n)


@pytest.mark.parametrize("dps", DPS)
def test_float_roots_equal_the_float_formulas(dps):
    with mp.workdps(dps):
        for args in ALL_PRESETS:
            sd = derive_spectrum(make_preset(*args))
            for n in NS:
                got = khintchine._float_root(sd, mpf(n))
                assert got == float_root_mpf(sd, mpf(n), BRACKET), (args, n)


# spectra whose explicit powers n^(rho_l/(rho_r+1)) mix mpf_pow's square-root
# branch (e = 1/2) with its exp(e log n) branch: e = 1/4 and 1/2, and
# e = 0.15, 0.225 and 1/2
MIXED_POLES = ((("0.5", 1), (1, "1.5")), (("0.3", "2.1"), ("0.45", "1.1"), (1, "0.7")))


def _mixed_spectrum(poles):
    return SpectralData("mixed", tuple(Pole(mpf(rho), mpf(h)) for rho, h in poles),
                        mpf("-0.3"), mpf("-0.5"), (mpf("0.04"), mpf("-0.01")))


@pytest.mark.parametrize("dps", DPS)
def test_shared_log_powers_equal_mpf_pow(dps):
    # every preset's explicit exponents, then seeded rationals of either sign
    rng = random.Random(16)
    with mp.workdps(dps):
        prec, rounding = mp._prec_rounding
        exponents = []
        for args in ALL_PRESETS:
            sd = derive_spectrum(make_preset(*args))
            exponents += [(rho / (sd.rho_r + 1))._mpf_ for rho, _ in sd.poles]
        exponents += [(mpf(rng.randrange(-60, 61)) / rng.randrange(1, 50))._mpf_
                      for _ in range(60)]
        for x in [mpf(n) for n in NS] + [mpf(rng.uniform(0.01, 10)) for _ in range(5)]:
            want = [mpf_pow(x._mpf_, e, prec, rounding) for e in exponents]
            # the log shared across all exponents, and each exponent alone
            assert asymptotics._powers(x._mpf_, exponents, prec, rounding) == want
            assert [asymptotics._powers(x._mpf_, [e], prec, rounding)[0]
                    for e in exponents] == want


@pytest.mark.parametrize("dps", DPS)
def test_estimates_mixing_half_and_general_powers_equal_the_mpf_formulas(dps):
    with mp.workdps(dps):
        for poles in MIXED_POLES:
            sd = _mixed_spectrum(poles)
            for n in NS:
                _assert_pair_matches(sd, n)


def _assert_q_matches(sd):
    assert _outcome(asymptotics.q_constant, sd) == _outcome(q_constant_mpf, sd), sd.label


@pytest.mark.parametrize("dps", DPS)
def test_q_constant_equals_the_mpf_formula(dps):
    # the explicit constants build Q on raw values; the pair checks above
    # take Q from q_constant, so Q is checked against its formula here
    with mp.workdps(dps):
        for args in ALL_PRESETS:
            _assert_q_matches(derive_spectrum(make_preset(*args)))
        for sd in list(SPECTRA_38.values()) + [_mixed_spectrum(p) for p in MIXED_POLES]:
            _assert_q_matches(sd)


def _custom(poles, label):
    # numbers with no short binary form, wider than 15 digits at 38
    return {"label": label, "poles": [{"rho": rho, "h": h} for rho, h in poles],
            "A0": "-0.3", "h0": "-0.7", "d_neg": ["0.04", "-0.011", "0.0037", "-0.0013"]}


# critical spectra (2 rho_{r-1} = rho_r), so Q subtracts the second pole's
# term: rho = 1/2 and 1 mixes the powers' square-root branch (-1/2) with
# exp(e log) (-1/4); rho = 0.3 and 0.6 have no short binary form.  Then a
# subcritical spectrum with three such poles
CUSTOM_SPECTRA = (_custom((("0.5", "0.3"), ("1", "1.7")), "critical (1/2, 1)"),
                  _custom((("0.3", "0.9"), ("0.6", "1.3")), "critical (0.3, 0.6)"),
                  _custom((("0.2", "0.7"), ("0.35", "1.1"), ("0.9", "0.45")), "three poles"))


def _random_spectrum(rng, kind):
    """A spectrum at the working precision whose numbers have 25 random
    digits: subcritical (one to three poles), critical (rho_r = 2 rho_{r-1},
    exactly) or ineligible (two poles)."""
    num = lambda lo, hi: lo + (hi - lo) * mpf(rng.randrange(10**25)) / 10**25
    rhos = sorted(num(0.1, 2.5) for _ in range(rng.randint(1, 3)))
    if kind == "critical":
        rhos = rhos[:1] + [2 * rhos[0]]
    elif kind == "ineligible":
        rhos = [rhos[0], rhos[0] * num(1.05, 1.9)]
    elif len(rhos) > 1:
        rhos[-1] = 2 * rhos[-2] + num(0.01, 1)
    poles = tuple(Pole(rho, num(0.1, 3)) for rho in rhos)
    return SpectralData(kind, poles, num(-1, 1), num(-2, 2),
                        tuple(num(-0.1, 0.1) for _ in range(6)))


@pytest.mark.parametrize("dps", (15, 60))
def test_spectra_off_their_precision_equal_the_mpf_formulas(dps):
    # every per-spectrum constant rounds where its mpf expression does: a
    # spectrum built at 38 digits and used at another precision enters wide
    # or narrow, and a missing or extra rounding shows on some of these
    rng = random.Random(18)
    with mp.workdps(38):
        spectra = [load_custom_spectrum(doc) for doc in CUSTOM_SPECTRA]
        spectra += [_random_spectrum(rng, kind) for kind in
                    ("subcritical", "critical", "ineligible") * 20]
    with mp.workdps(dps):
        assert [asymptotics.q_constant(sd) != sd.h0 for sd in spectra[:3]] == [
            True, True, False]
        for sd in spectra:
            for x in (mpf("0.2"), mpf("0.7")):
                assert khintchine._lhs_and_slope(sd, x._mpf_) == tuple(
                    v._mpf_ for v in lhs_and_slope_mpf(sd, x))
                _assert_series_matches(sd, x)
            Q = _outcome(asymptotics.q_constant, sd)
            assert Q == _outcome(q_constant_mpf, sd)
            for n in (10, 1000, 10**6):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", TruncationWarning)
                    kh = _library_estimate(asymptotics.log_estimate_khintchine, sd, n)
                    want = _outcome(khintchine_estimate_mpf, sd, n, BRACKET,
                                    asymptotics.DELTA_SERIES_TOL)
                assert kh == want, (sd.poles, n)
                ex = _library_estimate(asymptotics.log_estimate_explicit, sd, n)
                assert ex == ("raised" if Q == "raised" else
                              explicit_estimate_mpf(sd, n, Q)), (sd.poles, n)
