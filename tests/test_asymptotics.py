import dataclasses
import warnings
from math import gcd

import pytest
from mpmath import mp, mpf

from oracles import (
    EX_STANDARD_100,
    KH_STANDARD_100,
    LOG_P100,
    hardy_ramanujan_log,
)
from subexp import asymptotics, khintchine
from subexp.asymptotics import (
    EXPLICIT,
    KHINTCHINE,
    kappa,
    log_estimate_explicit,
    log_estimate_khintchine,
    q_constant,
    remainder_delta,
    to_decimal,
)
from subexp.errors import DomainError, IneligibleSpectrumError, TruncationWarning
from subexp.model import MULTISET, ModelSpec, QuasiPolynomial, make_preset
from subexp.spectrum import Pole, SpectralData, derive_spectrum

STD = derive_spectrum(make_preset("standard"))
ROOTS = derive_spectrum(make_preset("roots"))
CONG = derive_spectrum(make_preset("congruent", 2, 1))
PRESETS = (STD, ROOTS, CONG)


def test_remainder_delta_small_tau():
    for sd in PRESETS:
        tau = mpf("1e-6")
        val = remainder_delta(sd, tau)
        assert abs(val) <= abs(sd.d_neg[0]) * tau + mpf("1e-11")


def test_remainder_delta_term_oracle():
    # standard: D(-1)=1/24, D(-2)=0, so at tau=0.1 the sum is one term
    val = remainder_delta(STD, mpf("0.1"))
    assert abs(val + mpf(1) / 24 / 10) < mpf("1e-13")
    # roots: second term (1/2) D(-2) tau^2 enters with positive sign
    tau = mpf("0.1")
    want = -ROOTS.d_neg[0] * tau + ROOTS.d_neg[1] * tau**2 / 2
    got = remainder_delta(ROOTS, tau)
    assert abs(got - want) < abs(ROOTS.d_neg[3]) * tau**4  # next nonzero term


def test_remainder_delta_zero_series():
    sd = SpectralData("z", (Pole(mpf(1), mpf(1)),), mpf(0), mpf(0), (mpf(0),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert remainder_delta(sd, mpf("0.5")) == 0


def test_remainder_delta_exhaustion_warns():
    # terms -0.5 and 0.125, both above the 1e-12 tolerance
    sd = SpectralData("w", (Pole(mpf(1), mpf(1)),), mpf(0), mpf(0), (mpf(1), mpf(1)))
    with pytest.warns(TruncationWarning):
        remainder_delta(sd, mpf("0.5"))


def test_remainder_delta_domain():
    with pytest.raises(DomainError):
        remainder_delta(STD, 0)
    with pytest.raises(DomainError):
        remainder_delta(STD, 1)
    for tau in ("x", "0.5", True):  # not a ValueError from to_mpf; a bool is no number
        with pytest.raises(DomainError, match="needs a number tau"):
            remainder_delta(STD, tau)


def test_kappa_values():
    assert abs(kappa(STD) + 1) < mpf("1e-13")
    assert abs(kappa(ROOTS) + mpf(8) / 9) < mpf("1e-13")
    # congruent(a,b): kappa = -(a+b)/(2a) with the canonical residue
    assert abs(kappa(CONG) + mpf(3) / 4) < mpf("1e-13")
    sd32 = derive_spectrum(make_preset("congruent", 3, 2))
    assert abs(kappa(sd32) + mpf(5) / 6) < mpf("1e-13")


def test_q_constant_branches():
    assert abs(q_constant(STD) - STD.h0) < mpf("1e-13")
    want = ROOTS.h0 - (mp.pi**2 / 6) ** 2 / (24 * mp.zeta(3))
    assert abs(q_constant(ROOTS) - want) < mpf("1e-12")
    inel = SpectralData(
        "inel", (Pole(mpf("1.5"), mpf(1)), Pole(mpf(2), mpf(1))), mpf(0), mpf(0),
        (mpf(0),),
    )
    with pytest.raises(IneligibleSpectrumError):
        q_constant(inel)
    with pytest.raises(IneligibleSpectrumError):
        log_estimate_explicit(inel, 100)


def test_estimate_constants_follow_the_working_precision():
    sd = derive_spectrum(make_preset("roots"))
    at38 = [f(sd, 1000) for f in (log_estimate_explicit, log_estimate_khintchine)]
    with mp.workdps(60):
        got = [f(sd, 1000) for f in (log_estimate_explicit, log_estimate_khintchine)]
        fresh = dataclasses.replace(sd)
        want = [f(fresh, 1000) for f in (log_estimate_explicit, log_estimate_khintchine)]
    for g, w, old in zip(got, want, at38):
        assert g.log_value == w.log_value and g.terms == w.terms
        assert g.log_value != old.log_value


def test_estimate_constants_leave_equality_hash_and_repr_alone():
    sd = derive_spectrum(make_preset("roots"))
    twin = dataclasses.replace(sd)
    before = hash(sd), repr(sd)
    log_estimate_explicit(sd, 100)
    log_estimate_khintchine(sd, 100)
    assert sd.__dict__["_memo"]
    assert sd == twin
    assert hash(sd) == hash(twin) == before[0]
    assert repr(sd) == repr(twin) == before[1]


# the per-spectrum constant records, one per consumer, each kept on
# SpectralData.memo: the solver's, the Khintchine estimate's and the
# explicit formula's, which reads the Khintchine record
BUILDERS = (
    (khintchine, "_solver_constants"),
    (asymptotics, "_khintchine_constants"),
    (asymptotics, "_explicit_constants"),
)


def _spy_on_builders(monkeypatch):
    """Count each builder's runs by name; memo keys on the spies."""
    calls = dict.fromkeys((name for _, name in BUILDERS), 0)
    for module, name in BUILDERS:
        def spy(sd, build=getattr(module, name), name=name):
            calls[name] += 1
            return build(sd)
        monkeypatch.setattr(module, name, spy)
    return calls


def _pair(sd, n):
    return log_estimate_khintchine(sd, n), log_estimate_explicit(sd, n)


@pytest.mark.parametrize("args", [("standard",), ("roots",), ("congruent", 3, 1)])
def test_each_builder_runs_once_per_spectrum_and_precision(monkeypatch, args):
    calls = _spy_on_builders(monkeypatch)
    sd = derive_spectrum(make_preset(*args))
    first = _pair(sd, 1000)
    assert set(calls.values()) == {1}, calls
    assert _pair(sd, 1000) == first and _pair(sd, 10**6)
    assert set(calls.values()) == {1}, calls
    with mp.workdps(60):
        _pair(sd, 1000)
        _pair(sd, 10**6)
    assert set(calls.values()) == {2}, calls
    _pair(sd, 1000)  # back at 38 digits: the memo holds one precision
    assert set(calls.values()) == {3}, calls


def test_explicit_record_builds_the_khintchine_record_once(monkeypatch):
    calls = _spy_on_builders(monkeypatch)
    sd = derive_spectrum(make_preset("roots"))
    explicit = log_estimate_explicit(sd, 1000)
    assert calls == {"_solver_constants": 0, "_khintchine_constants": 1,
                     "_explicit_constants": 1}
    log_estimate_khintchine(sd, 1000)
    assert log_estimate_explicit(sd, 1000) == explicit
    assert set(calls.values()) == {1}, calls


def test_ineligible_spectrum_raises_on_every_call(monkeypatch):
    # a failed build stores nothing, so each call builds and raises again;
    # eligibility is checked before the Khintchine record is read, and
    # kappa and the Khintchine estimate need no eligibility
    calls = _spy_on_builders(monkeypatch)
    inel = SpectralData(
        "inel", (Pole(mpf("1.5"), mpf(1)), Pole(mpf(2), mpf(1))), mpf(0), mpf(0),
        (mpf(0),),
    )
    for k in range(1, 4):
        with pytest.raises(IneligibleSpectrumError):
            log_estimate_explicit(inel, 100)
        with pytest.raises(IneligibleSpectrumError):
            q_constant(inel)
        assert calls["_explicit_constants"] == 2 * k
        assert calls["_khintchine_constants"] == 0
    assert mp.isfinite(log_estimate_khintchine(inel, 100).log_value)
    with pytest.raises(IneligibleSpectrumError):
        log_estimate_explicit(inel, 100)
    assert calls["_khintchine_constants"] == 1
    assert asymptotics._khintchine_constants in inel._memo
    assert asymptotics._explicit_constants not in inel._memo
    assert kappa(inel) == mpf(-2) / 3


def test_khintchine_domain_error_names_the_first_valid_n():
    presets = [("standard",), ("roots",)] + [
        ("congruent", a, b) for a in range(2, 13) for b in range(1, a) if gcd(a, b) == 1
    ]
    first = {}
    for args in presets:
        sd = derive_spectrum(make_preset(*args))
        n, message = 1, None
        while True:
            try:
                log_estimate_khintchine(sd, n)
                break
            except DomainError as exc:
                message = str(exc)
            n += 1
        first[args] = n
        if message is not None:
            assert "0 < tau < 1" in message
            assert f"n >= {n};" in message, (args, message)
    assert first[("roots",)] == 6
    assert first[("standard",)] == 2


def test_khintchine_estimate_standard():
    le = log_estimate_khintchine(STD, 100)
    assert le.formula == KHINTCHINE
    assert abs(le.log_value - KH_STANDARD_100) < mpf("1e-12")
    assert abs(le.log_value - LOG_P100) < mpf("0.08")


def test_khintchine_estimate_ratio_at_1000():
    from subexp.exact import pentagonal_oracle

    p1000 = pentagonal_oracle(1000)[1000]
    le = log_estimate_khintchine(STD, 1000)
    ratio = mp.exp(mp.log(mpf(p1000)) - le.log_value)
    assert mpf("0.95") < ratio < mpf("1.05")


@pytest.mark.parametrize("args", [("standard",), ("congruent", 3, 1), ("congruent", 5, 2)],
                         ids=lambda args: "-".join(map(str, args)))
def test_estimate_errors_shrink_at_the_theoretical_rate(preset_counts, args):
    # e(n) = estimate - log c_n falls like n^-alpha, alpha = 1/(rho_r+1), so
    # e(2n)/e(n) is near 2^-alpha: within 0.0071 at n = 2000 on these presets,
    # while adding 1e-3 to either estimate moves the ratio by 0.026 or more.
    # Roots is left out: it is critical, and its explicit error's second
    # term, of relative size n^(-1/3), still leaves its ratio 0.026 off
    counts = preset_counts(args, 4000)
    sd = derive_spectrum(make_preset(*args))
    want = mpf(2) ** (-1 / (sd.rho_r + 1))
    for estimate in (log_estimate_khintchine, log_estimate_explicit):
        e = [estimate(sd, n).log_value - mp.log(counts[n]) for n in (2000, 4000)]
        assert abs(e[1] / e[0] - want) <= mpf("0.01"), (estimate.__name__, e)


def test_explicit_estimate_standard():
    le = log_estimate_explicit(STD, 100)
    assert le.formula == EXPLICIT
    assert abs(le.log_value - EX_STANDARD_100) < mpf("1e-12")


def test_breakdown_sums_to_log_value():
    for sd in PRESETS:
        for n in (10, 1000):
            for le in (log_estimate_khintchine(sd, n), log_estimate_explicit(sd, n)):
                assert set(le.terms) == {
                    "prefactor_log",
                    "power_log",
                    "exponent_sum",
                    "Q_or_delta",
                }
                gap = le.log_value - sum(le.terms.values())
                assert abs(gap) <= mpf("1e-20") * max(1, abs(le.log_value))


def test_explicit_collapses_to_hardy_ramanujan():
    for n in (10, 100, 1000):
        got = log_estimate_explicit(STD, n).log_value
        assert abs(got - hardy_ramanujan_log(n)) < mpf("1e-10")


def test_explicit_strictly_increasing():
    for sd in PRESETS:
        prev = None
        ns = list(range(2, 2001)) + [4000, 8000, 10000]
        for n in ns:
            v = log_estimate_explicit(sd, n).log_value
            if prev is not None:
                assert v > prev
            prev = v


def test_leading_exponent_power_law():
    for sd in PRESETS:
        rho_r = sd.rho_r
        scale = mpf(2) ** (rho_r / (rho_r + 1))
        for n in (50, 500, 5000):
            e1 = log_estimate_explicit(sd, n).terms["exponent_sum"]
            e2 = log_estimate_explicit(sd, 2 * n).terms["exponent_sum"]
            if sd.r == 1:
                assert abs(e2 / e1 - scale) < mpf("1e-12") * scale
            else:
                # lower-pole terms scale slower; bound the ratio instead
                assert e2 / e1 < scale
                assert e2 / e1 > mpf(2) ** (sd.poles[0].rho / (rho_r + 1))


def test_formula_agreement_shrinks():
    for sd in PRESETS:
        gaps = []
        for k in (3, 4, 5, 6):
            n = 10**k
            kh = log_estimate_khintchine(sd, n).log_value
            ex = log_estimate_explicit(sd, n).log_value
            gaps.append(abs(ex - kh))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= mpf("0.05")


def test_the_formula_gap_follows_its_leading_term_on_one_pole_presets():
    # one pole at rho = 1: expanding delta_n about sqrt(h/m), m = n - D(-1),
    # gives K - E = C/sqrt(n) + O(1/n), C = (3 A0 - A0^2)/(4 sqrt(h))
    # - D(-1) sqrt(h) (-0.394559 on standard).  The O(1/n) rest is at most
    # 0.26/n on these presets up to n = 10^16, where the bound 0.3/n is
    # 3e-17 nats, so shifting either estimate by 1e-15 fails; 38 digits
    # round log c_n there (about 2.6e8) by about 1e-30
    one_pole = [("standard",)] + [
        ("congruent", a, b) for a in range(2, 13) for b in range(1, a) if gcd(a, b) == 1
    ]
    with mp.workdps(38):
        for args in one_pole:
            sd = derive_spectrum(make_preset(*args))
            ((_, h),) = sd.poles
            C = (3 * sd.A0 - sd.A0**2) / (4 * mp.sqrt(h)) - sd.d_neg[0] * mp.sqrt(h)
            for n in (10**4, 10**8, 10**16):
                gap = (log_estimate_khintchine(sd, n).log_value
                       - log_estimate_explicit(sd, n).log_value)
                assert abs(mp.sqrt(n) * gap - C) <= mpf("0.3") / mp.sqrt(n), (args, n)


def test_the_formula_gap_follows_its_leading_terms_on_one_pole_above_rho_1():
    # one pole at rho > 1: with delta0 = (rho h/n)^(1/(rho+1)) the same
    # expansion gives K - E = T(n) + o(1/n), T(n) = -D(-1) delta0
    # + A0 (rho/2 + 1 - A0/2)/((rho + 1) n delta0), led by the D(-1) term.
    # The rest is at most 0.0053/n on b_j = j, j^2 and 2j^2 up to n = 10^16,
    # where the bound 1/n is 1e-16 nats, so shifting either estimate by
    # 1e-15 fails.  Left out: one-pole rules whose rest T misses, such as
    # j^2 on j = 1 (mod 4), about 0.066/sqrt(n), and j on j = 1 (mod 3),
    # about 0.004 n^(-2/3) at n = 10^8; they need the series reversion of
    # delta_n to the next order
    with mp.workdps(38):
        for terms in (((1, 1, 1),), ((1, 2, 1),), ((1, 2, 2),)):
            sd = derive_spectrum(ModelSpec("one pole", MULTISET, QuasiPolynomial(1, terms)))
            ((rho, h),) = sd.poles
            for n in (10**4, 10**8, 10**16):
                delta0 = (rho * h / n) ** (1 / (rho + 1))
                T = (-sd.d_neg[0] * delta0
                     + sd.A0 * (rho / 2 + 1 - sd.A0 / 2) / ((rho + 1) * n * delta0))
                gap = (log_estimate_khintchine(sd, n).log_value
                       - log_estimate_explicit(sd, n).log_value)
                assert abs(gap - T) <= mpf(1) / n, (terms, n)


def test_to_decimal():
    le = log_estimate_explicit(STD, 100)
    zero = type(le)(EXPLICIT, 1, mpf(0), {"prefactor_log": mpf(0),
                    "power_log": mpf(0), "exponent_sum": mpf(0),
                    "Q_or_delta": mpf(0)})
    assert to_decimal(zero) == (1, 0)
    p100 = type(le)(EXPLICIT, 100, mp.log(190569292), {})
    mant, e10 = to_decimal(p100)
    assert e10 == 8
    assert abs(mant - mpf("1.90569292")) < mpf("1e-11")
    big = type(le)(EXPLICIT, 1, 100 * mp.log(10), {})
    mant, e10 = to_decimal(big)
    assert (mant, e10) == (1, 100)
    # log10 of 10^6 lands just below 6: the mantissa 9.99... rounds to 10
    # at 12 digits and carries into the exponent
    million = type(le)(EXPLICIT, 1, mp.log(mpf(10) ** 6), {})
    assert to_decimal(million) == (1, 6)


def test_to_decimal_refuses_digits_the_precision_does_not_hold():
    # the mantissa's error is about |log_value| 2^(1-prec) relative: at 15
    # digits roots' explicit estimate at n = 10^8 (log c_n near 545881)
    # would print 1.65212235398e237073, wrong from the 10th digit
    sd = derive_spectrum(make_preset("roots"))
    with mp.workdps(15):
        le = log_estimate_explicit(sd, 10**8)
        with pytest.raises(DomainError, match="need a precision of 18 digits"):
            to_decimal(le)
    for dps in (18, 60):
        with mp.workdps(dps):
            mantissa, exponent10 = to_decimal(log_estimate_explicit(sd, 10**8))
            assert (mp.nstr(mantissa, 12), exponent10) == ("1.65212235457", 237073)


def test_explicit_requires_positive_n():
    # both estimators refuse n < 1 before solving anything
    for estimate in (log_estimate_explicit, log_estimate_khintchine):
        for n in (0, -3):
            with pytest.raises(DomainError, match="n >= 1"):
                estimate(STD, n)
        # past the int-to-str limit the message names n by its bits
        with pytest.raises(DomainError, match="got n=an int of 16610 bits$"):
            estimate(STD, -(10**5000))
    # c_n exists at whole n only; 1e8 is a whole float
    for estimate in (log_estimate_explicit, log_estimate_khintchine):
        with pytest.raises(DomainError):
            estimate(STD, 100.5)
        assert estimate(STD, 1e8).n == 10**8
        for n in ("10", "x", True, False):  # a str raised TypeError, True read as 1
            with pytest.raises(DomainError, match=f"need a whole n >= 1; got n={n!r}"):
                estimate(STD, n)


def test_khintchine_estimate_calls_solver_and_series_once_through_the_module(
        monkeypatch):
    # the benchmark's layer tracer patches these two asymptotics attributes
    calls = []
    for name in ("solve_delta", "remainder_delta"):
        def spy(*args, _name=name, _f=getattr(asymptotics, name)):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(asymptotics, name, spy)
    for n in (10, 1000):
        calls.clear()
        log_estimate_khintchine(ROOTS, n)
        assert calls == ["solve_delta", "remainder_delta"]
