import ast
import random
from fractions import Fraction
from math import factorial, gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import oracles
from oracles import (
    ROOTS_H0,
    delta_direct,
    hurwitz_zeta,
    preset_exact_constants,
    preset_spectrum_closed_form,
    zeta_neg_bernoulli,
    zeta_neg_exact,
)
from subexp import model as model_module
from subexp.asymptotics import (
    kappa,
    log_estimate_explicit,
    log_estimate_khintchine,
    q_constant,
)
from subexp.errors import (
    CustomModelError,
    InvalidParametersError,
    SpectrumDataError,
    SpectrumSchemaError,
)
from subexp.exact import exact_coefficients, product_dp
from subexp.khintchine import solve_delta
from subexp.model import MULTISET, SELECTION, ModelSpec, QuasiPolynomial, make_preset
from subexp.spectrum import (
    CRITICAL,
    INELIGIBLE,
    SUBCRITICAL,
    Pole,
    SpectralData,
    derive_spectrum,
    load_custom_spectrum,
    validate_spectrum,
)
from subexp.specfun import riemann_zeta

TOL = mpf("1e-12")
# the 47 presets of the benchmark sweep, plus a = 1 and two b > a
PRESETS = (
    [("standard",), ("roots",)]
    + [("congruent", a, b) for a in range(2, 13) for b in range(1, a) if gcd(a, b) == 1]
    + [("congruent", 1, 1), ("congruent", 3, 4), ("congruent", 5, 13)]
)


def close(got, want, rel=mpf("1e-30")):
    return abs(got - want) <= rel * abs(want)


def test_standard_spectrum():
    sd = derive_spectrum(make_preset("standard"))
    assert sd.r == 1
    assert sd.poles[0].rho == 1
    assert abs(sd.poles[0].h - mp.pi**2 / 6) < TOL
    assert abs(sd.A0 + mpf(1) / 2) < TOL
    assert abs(sd.h0 + mp.log(2 * mp.pi) / 2) < TOL
    assert abs(sd.d_neg[0] - mpf(1) / 24) < TOL


def test_roots_spectrum():
    sd = derive_spectrum(make_preset("roots"))
    assert sd.r == 2
    assert (sd.poles[0].rho, sd.poles[1].rho) == (1, 2)
    assert abs(sd.poles[0].h - mp.pi**2 / 6) < TOL
    assert abs(sd.poles[1].h - 2 * mp.zeta(3)) < TOL
    assert abs(sd.A0 + mpf(2) / 3) < TOL
    assert abs(sd.h0 - ROOTS_H0) < TOL


def test_congruent_spectrum():
    sd = derive_spectrum(make_preset("congruent", 2, 1))
    assert sd.r == 1
    assert abs(sd.poles[0].h - mp.pi**2 / 12) < TOL
    assert abs(sd.A0) < TOL  # 1/2 - 1/2
    assert abs(sd.h0 + mp.log(2) / 2) < TOL
    sd32 = derive_spectrum(make_preset("congruent", 3, 2))
    assert abs(sd32.A0 - (mpf(1) / 2 - mpf(2) / 3)) < TOL
    want_h0 = -mp.log(3) * sd32.A0 + mp.loggamma(mpf(2) / 3) - mp.log(2 * mp.pi) / 2
    assert abs(sd32.h0 - want_h0) < TOL


def test_congruent_1_1_equals_standard():
    a = derive_spectrum(make_preset("congruent", 1, 1))
    b = derive_spectrum(make_preset("standard"))
    assert abs(a.A0 - b.A0) < TOL
    assert abs(a.h0 - b.h0) < TOL
    assert a.r == b.r
    for pa, pb in zip(a.poles, b.poles):
        assert abs(pa.rho - pb.rho) < TOL
        assert abs(pa.h - pb.h) < TOL
    for da, db in zip(a.d_neg, b.d_neg):
        assert abs(da - db) < TOL


def test_residue_reconstruction():
    # h_l = A_l zeta(rho_l + 1) Gamma(rho_l) with the analytic A_l
    cases = [
        (derive_spectrum(make_preset("standard")), [mpf(1)]),
        (derive_spectrum(make_preset("roots")), [mpf(1), mpf(2)]),
        (derive_spectrum(make_preset("congruent", 3, 1)), [mpf(1) / 3]),
    ]
    for sd, residues in cases:
        for (rho, h), A in zip(sd.poles, residues):
            want = A * riemann_zeta(rho + 1) * mp.gamma(rho)
            assert abs(h - want) < TOL
            assert h > 0


def test_d_neg_identity():
    # d_neg[l-1] = zeta(1-l) * D_b(-l), recomputed with direct calls
    std = derive_spectrum(make_preset("standard"), L=6)
    roots = derive_spectrum(make_preset("roots"), L=6)
    cong = derive_spectrum(make_preset("congruent", 2, 1), L=6)
    for l in range(1, 7):
        z = riemann_zeta(1 - l)
        assert abs(std.d_neg[l - 1] - z * riemann_zeta(-l)) < TOL
        want = z * (2 * riemann_zeta(-l - 1) + riemann_zeta(-l))
        assert abs(roots.d_neg[l - 1] - want) < TOL
        want = z * mpf(2) ** l * hurwitz_zeta(-l, mpf(1) / 2)
        assert abs(cong.d_neg[l - 1] - want) < TOL


def test_d_neg_at_L20_matches_bernoulli():
    # d_neg[l-1] = zeta(1-l) * D_b(-l) up to L = 20, against
    # zeta(-n, q) = -B_{n+1}(q)/(n+1)
    z = zeta_neg_bernoulli
    cases = [
        (make_preset("standard"), lambda l: z(l)),
        (make_preset("roots"), lambda l: 2 * z(l + 1) + z(l)),
        (make_preset("congruent", 3, 1), lambda l: mpf(3) ** l * z(l, mpf(1) / 3)),
        (make_preset("congruent", 12, 11),
         lambda l: mpf(12) ** l * z(l, mpf(11) / 12)),
    ]
    for model, db in cases:
        sd = derive_spectrum(model, L=20)
        assert len(sd.d_neg) == 20
        for l in range(1, 21):
            want = z(l - 1) * db(l)
            assert abs(sd.d_neg[l - 1] - want) <= mpf("1e-30") * abs(want)


@pytest.mark.parametrize(
    "args", PRESETS[:2] + random.Random(23).sample(PRESETS[2:47], 3),
    ids=lambda args: "-".join(map(str, args)))
def test_direct_sum_matches_the_mellin_expansion(args):
    # log f(e^-tau) summed over j equals sum h_l tau^(-rho_l) - A0 log tau + h0
    # + sum (-1)^l D(-l) tau^l / l!; at tau = 0.05 with L = 20 the 47 presets
    # agree to 1.9e-21 (congruent(12, 7)), the first omitted term's size
    model = make_preset(*args)
    with mp.workdps(38):
        sd, tau = derive_spectrum(model, L=20), mpf("0.05")
        series = mp.fsum((-1) ** l * d * tau**l / mp.factorial(l)
                         for l, d in enumerate(sd.d_neg, start=1))
        assert abs(delta_direct(sd, model.weight, tau) - series) < mpf("1e-18")


quasi_polynomials = st.integers(1, 6).flatmap(lambda a: st.builds(
    QuasiPolynomial, st.just(a), st.lists(st.tuples(
        st.integers(1, a), st.integers(0, 2), st.integers(0, 3)),
        min_size=1, max_size=3).filter(lambda t: any(c for *_, c in t)).map(tuple)))


@settings(max_examples=10, deadline=None)
@given(quasi_polynomials)
def test_mellin_expansion_and_exact_counts_on_random_rules(rule):
    # the presets have degree 0 or 1 and one residue class; these rules
    # reach degree 2 and up to three classes.  Each is about 0.1 s, mostly
    # mpmath's numerical zeta'(-i, q) for q < 1
    model = ModelSpec("random", MULTISET, rule)
    with mp.workdps(38):
        sd, tau = derive_spectrum(model, L=20), mpf("0.05")
        series = mp.fsum((-1) ** l * d * tau**l / mp.factorial(l)
                         for l, d in enumerate(sd.d_neg, start=1))
        assert abs(delta_direct(sd, rule, tau) - series) < mpf("1e-18")
    assert exact_coefficients(model, 200).coeffs == product_dp(model, 200).coeffs


@pytest.mark.parametrize("args", PRESETS, ids=lambda args: "-".join(map(str, args)))
def test_derive_spectrum_matches_closed_forms(args):
    sd = derive_spectrum(make_preset(*args), L=20)
    poles, A0, h0, d_neg = preset_spectrum_closed_form(args[0], 20, *args[1:])
    assert [p.rho for p in sd.poles] == [rho for rho, _ in poles]
    for p, (_, h) in zip(sd.poles, poles):
        assert close(p.h, h)
    assert close(sd.A0, A0)
    assert close(sd.h0, h0)
    assert len(sd.d_neg) == 20
    for got, want in zip(sd.d_neg, d_neg):
        assert close(got, want)


def _rounded_once(x):
    """The Fraction x rounded once, to nearest, at mp.prec."""
    return mp.fdiv(x.numerator, x.denominator)


def _rounded_to_nearest(got, x):
    """got is the rational x rounded to nearest at mp.prec: within half an
    ulp of x, read off got's mantissa and exponent with exact arithmetic."""
    if x == 0:
        return got == 0
    man, exp = got.man_exp  # |got| = man * 2^exp
    half_ulp = Fraction(2) ** (exp + man.bit_length() - mp.prec - 1)
    return abs(int(mp.sign(got)) * man * Fraction(2) ** exp - x) <= half_ulp


@pytest.mark.parametrize("args", PRESETS, ids=lambda args: "-".join(map(str, args)))
def test_constants_are_exact_rationals_rounded_once(args):
    # A0 and D(-l) against the exact Fractions: equal to mpf(p)/q bit for bit
    # at the default precision, where p fits the mantissa, and the nearest
    # float at 15 digits too, where mpf(p)/q would round twice
    for L in (8, 20):
        A0, d_neg = preset_exact_constants(args[0], L, *args[1:])
        sd = derive_spectrum(make_preset(*args), L)
        for got, x in zip((sd.A0,) + sd.d_neg, [A0] + d_neg):
            assert x.numerator.bit_length() <= mp.prec
            assert got == mpf(x.numerator) / x.denominator
            assert _rounded_to_nearest(got, x)
        with mp.workdps(15):
            sd = derive_spectrum(make_preset(*args), L)
            for got, x in zip((sd.A0,) + sd.d_neg, [A0] + d_neg):
                assert _rounded_to_nearest(got, x)


def test_float_and_fraction_coefficients_derive_exactly():
    # b_j = 1 written as 1.0, and as 1/2 + 1/2 on one residue
    standard = derive_spectrum(make_preset("standard"), L=20)
    for terms in (((1, 0, 1.0),), ((1, 0, Fraction(1, 2)), (1, 0, Fraction(1, 2)))):
        sd = derive_spectrum(ModelSpec("qp", MULTISET, QuasiPolynomial(1, terms)), L=20)
        assert (sd.A0, sd.d_neg) == (standard.A0, standard.d_neg)


@pytest.mark.parametrize("dps", (15, 38))
def test_a_fraction_coefficient_enters_rounded_once(dps):
    # b_j = 5/9, and 2/11 at odd j: each c enters the residue and h0 as
    # to_mpf rounds it, to nearest, not as mpmath reads a Fraction (toward
    # zero, which differs for these c at both dps)
    rule = lambda a, c: ModelSpec("qp", MULTISET, QuasiPolynomial(a, ((1, 0, c),)))
    with mp.workdps(dps):
        c = mp.fdiv(5, 9)
        sd = derive_spectrum(rule(1, Fraction(5, 9)))
        assert sd.poles == (Pole(1, c * riemann_zeta(2)),)
        assert sd.h0 == c * (-mp.log(2 * mp.pi) / 2)
        sd = derive_spectrum(rule(2, Fraction(2, 11)))
        assert sd.poles == (Pole(1, mp.fdiv(2, 11) * riemann_zeta(2) / 2),)


def test_whole_float_coefficient_derives_bit_for_bit():
    # 2.0 * 7**19 used to be rounded to a double, so h0 was off by -102.35
    derive = lambda c: derive_spectrum(
        ModelSpec("qp", MULTISET, QuasiPolynomial(7, ((1, 19, c),))), L=2)
    assert derive(2.0) == derive(2)


def test_derivation_calls_no_zeta_value_at_a_nonpositive_integer(monkeypatch):
    # A0 and D(-l) come from Bernoulli polynomials; mp.zeta is left with the
    # poles' zeta(i+2) and, for h0 off q = 1, the derivative zeta'(-i, q)
    calls = []
    zeta = mp.zeta

    def spy(s, a=1, derivative=0, **kwargs):
        calls.append((s, derivative))
        return zeta(s, a, derivative, **kwargs)

    monkeypatch.setattr(mp, "zeta", spy)
    qp = ModelSpec("qp", MULTISET, QuasiPolynomial(3, ((1, 0, 1), (2, 1, 1))))
    for model in [make_preset(*args) for args in PRESETS] + [qp]:
        derive_spectrum(model, L=20)
    assert calls
    assert not [(s, d) for s, d in calls if not d and s <= 0 and s == int(s)]


def test_oracles_import_nothing_from_the_package():
    tree = ast.parse(Path(oracles.__file__).read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert imported
    assert not [name for name in imported if name.split(".")[0] == "subexp"]
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level]


SPOOFED = {
    "standard-name-on-distinct-parts": ModelSpec("standard", SELECTION, lambda j: 1),
    "roots-name-on-unit-weights": ModelSpec("roots", MULTISET, lambda j: 1),
    "preset-weight-selection-base": ModelSpec(
        "standard", SELECTION, make_preset("standard").weight),
}


@pytest.mark.parametrize("name", sorted(SPOOFED))
def test_derive_spectrum_reads_the_weights_not_the_kind(name):
    with pytest.raises(CustomModelError):
        derive_spectrum(SPOOFED[name])


# (a, r, c0, c1): b_j = c0 + c1*j on the residue class r mod a
linear_on_a_class = st.integers(1, 12).flatmap(
    lambda a: st.tuples(st.just(a), st.integers(1, a), st.integers(0, 3),
                        st.integers(0, 3))
).filter(lambda t: t[2] or t[3])


@settings(max_examples=40, deadline=None)
@given(linear_on_a_class)
@example((6, 4, 1, 1))  # A0 = (1/2 - 2/3) + 6*(1/36) = 0 exactly
def test_quasi_polynomial_spectrum_matches_bernoulli(params):
    # against zeta(-n, q) = -B_{n+1}(q)/(n+1) and h = (c_i/a) zeta(i+2) i!
    a, r, c0, c1 = params
    model = ModelSpec("qp", MULTISET, QuasiPolynomial(a, ((r, 0, c0), (r, 1, c1))))
    for j in range(1, 3 * a + 1):
        assert model.b(j) == (c0 + c1 * j if j % a == r % a else 0)
    sd = derive_spectrum(model, L=6)
    z = zeta_neg_bernoulli

    def want(l):
        # zeta(1-l)*D_b(-l) (D_b(0) at l = 0) and its largest summand's size,
        # at 80 digits so that a cancelling sum is told from an exact zero
        with mp.workdps(80):
            q, zl = mpf(r) / a, z(l - 1) if l else 1
            parts = (zl * c0 * mpf(a) ** l * z(l, q),
                     zl * c1 * mpf(a) ** (l + 1) * z(l + 1, q))
            return mp.fsum(parts), max(map(abs, parts))

    for l, got in enumerate((sd.A0,) + sd.d_neg):
        value, scale = want(l)
        if abs(value) <= mpf("1e-60") * scale:
            assert got == 0
        else:
            assert close(got, value)
    want = [(i + 1, mpf(c) / a * mp.zeta(i + 2) * mp.factorial(i))
            for i, c in enumerate((c0, c1)) if c]
    assert [p.rho for p in sd.poles] == [rho for rho, _ in want]
    for p, (_, h) in zip(sd.poles, want):
        assert close(p.h, h)


def test_theta_consistency():
    sd = derive_spectrum(make_preset("standard"))
    assert abs(sd.theta - (sd.h0 + mp.euler * sd.A0)) < TOL


def test_derive_spectrum_L():
    sd = derive_spectrum(make_preset("standard"), L=12)
    assert len(sd.d_neg) == 12
    with pytest.raises(InvalidParametersError):
        derive_spectrum(make_preset("standard"), L=0)
    for L in (2.5, 8.0, "8", True):
        with pytest.raises(InvalidParametersError, match="need an int L >= 1"):
            derive_spectrum(make_preset("standard"), L=L)


@pytest.mark.parametrize("dps", (15, 38))
@pytest.mark.parametrize("args", [("standard",), ("roots",), ("congruent", 7, 3)],
                         ids=lambda args: "-".join(map(str, args)))
def test_constants_to_depth_60_are_exact_rationals_rounded_once(args, dps):
    A0, d_neg = preset_exact_constants(args[0], 60, *args[1:])
    with mp.workdps(dps):
        sd = derive_spectrum(make_preset(*args), L=60)
        assert (sd.A0,) + sd.d_neg == tuple(map(_rounded_once, [A0] + d_neg))


@pytest.mark.parametrize("degree", (21, 25))
def test_a_weight_of_high_degree_derives(degree):
    # b_j = j^degree: D_b(s) = zeta(s - degree), one pole at rho = degree + 1
    # with h = zeta(rho + 1)*(rho - 1)!, A0 = zeta(-degree) and
    # D(-l) = zeta(1 - l)*zeta(-l - degree).  Its estimates need n past
    # about 5e19 to apply, so none is checked here
    model = ModelSpec("power", MULTISET, QuasiPolynomial(1, ((1, degree, 1),)))
    sd = derive_spectrum(model, L=8)
    (rho, h), = sd.poles
    assert rho == degree + 1
    with mp.workdps(mp.dps + 20):
        want = mp.zeta(degree + 2) * factorial(degree)
    assert abs(h - want) <= 2 * mp.eps * want
    assert sd.A0 == _rounded_once(zeta_neg_exact(degree))
    assert sd.d_neg == tuple(_rounded_once(zeta_neg_exact(l - 1) * zeta_neg_exact(l + degree))
                             for l in range(1, 9))


def test_derive_spectrum_rejects_custom():
    from subexp.model import custom_model

    with pytest.raises(CustomModelError):
        derive_spectrum(custom_model([1, 2, 3]))


def test_derive_spectrum_rejects_weights_without_a_pole():
    # b_j = 0: no degree has a nonzero coefficient sum, and SpectralData
    # refuses the empty poles.  b_j = (-1)^(j+1) has none either, and its
    # b_2 = -1 is refused when the rule is built
    with pytest.raises(SpectrumDataError, match="no poles"):
        derive_spectrum(ModelSpec("no pole", MULTISET, QuasiPolynomial(1, ((1, 0, 0),))))
    with pytest.raises(InvalidParametersError, match="^b_j = -1 < 0 at j = 2$"):
        QuasiPolynomial(2, ((1, 0, 1), (2, 0, -1)))


def test_derive_spectrum_rejects_a_negative_weight():
    # b_j = 2 at odd j and -1 at even j has a pole (coefficient sum 1), but
    # exact_coefficients cannot count it; so the rule is refused when built,
    # before any model, table or spectrum holds it.  The next, -j on
    # j = 3 (mod 4), is negative on one class of four, and the last two only
    # far out: 10^20 - j from j = 10^20 + 1, and (j - 10^15)^2 - 1 at
    # j = 10^15 alone
    cases = [(2, ((1, 0, 2), (2, 0, -1)), "^b_j = -1 < 0 at j = 2$"),
             (4, ((1, 0, 1), (3, 1, -1)), "^b_j = -3 < 0 at j = 3$"),
             (1, ((1, 0, 10**20), (1, 1, -1)), "^b_j = -1 < 0 at j = an int of 67 bits$"),
             (1, ((1, 2, 1), (1, 1, -2 * 10**15), (1, 0, 10**30 - 1)),
              "^b_j = -1 < 0 at j = 1000000000000000$")]
    for a, terms, named in cases:
        with pytest.raises(InvalidParametersError, match=named):
            QuasiPolynomial(a, terms)


def test_derive_spectrum_refuses_a_negative_degree_sum(monkeypatch):
    # b_j = 2j - 1 is positive at every j and counts exactly, but its degree-0
    # coefficients sum to -1, which gives the pole at rho = 1 the residue
    # -zeta(2): SpectralData refuses it.  Its one residue class is searched
    # for a negative b_j once, when the rule is built
    calls = []
    first_negative = model_module._first_negative
    monkeypatch.setattr(model_module, "_first_negative",
                        lambda *args: calls.append(args) or first_negative(*args))
    model = ModelSpec("odd", MULTISET, QuasiPolynomial(1, ((1, 1, 2), (1, 0, -1))))
    assert len(calls) == 1
    assert model.weights(5) == [1, 3, 5, 7, 9]
    with pytest.raises(SpectrumDataError, match=r"^pole 1: residue h=-1\.64\d* not positive$"):
        derive_spectrum(model)
    assert len(calls) == 1


def test_derive_spectrum_reads_no_zero_term():
    # c = 0 adds nothing to b_j, so b_j = 1 + 0*j^20 derives standard's
    # data; its degree 20 used to count toward the Bernoulli depth
    # (degree 20 + L=8 was refused) and cost a zeta'(-20, 1)
    rule = ModelSpec("zero term", MULTISET, QuasiPolynomial(1, ((1, 0, 1), (1, 20, 0))))
    for L in (8, 20):
        got, want = derive_spectrum(rule, L), derive_spectrum(make_preset("standard"), L)
        assert (got.poles, got.A0, got.h0, got.d_neg) == (
            want.poles, want.A0, want.h0, want.d_neg)


signed_rules = st.integers(1, 4).flatmap(lambda a: st.tuples(
    st.just(a), st.lists(st.tuples(
        st.integers(1, a), st.integers(0, 3), st.integers(-40, 40)),
        min_size=1, max_size=4).map(tuple)))


@settings(max_examples=200, deadline=None)
@given(signed_rules)
@example((1, ((1, 2, 1), (1, 1, -20), (1, 0, 99))))  # (j-10)^2 - 1
@example((3, ((2, 3, 1), (2, 2, -40), (2, 1, 300), (2, 0, -40))))
def test_first_negative_weight_matches_a_scan(rule):
    # a class sums at most four c of |c| <= 40, so each real root of its b_j
    # lies below Cauchy's bound 1 + 160; a scan of j < 200 finds the first
    # b_j < 0, and past 161 b_j has the sign of its lead coefficient
    a, terms = rule
    degree = max(i for _, i, _ in terms)
    for r in {r for r, _, _ in terms}:
        b = lambda j: sum(c * j**i for s, i, c in terms if s == r)
        want = next((j for j in range(r, 200, a) if b(j) < 0), None)
        assert model_module._first_negative(a, terms, r, degree) == want


def _spectrum(poles=((1, 1), (3, 1)), A0=0, h0=0, d_neg=(0, 0)):
    return SpectralData("x", tuple(Pole(mpf(rho), mpf(h)) for rho, h in poles),
                        mpf(A0), mpf(h0), tuple(mpf(d) for d in d_neg))


# id -> (fields that break the contract, what the error must name)
BAD_SPECTRA = {
    "no-poles": ({"poles": ()}, "no poles"),
    "rho-unsorted": ({"poles": ((2, 1), (1, 1))}, "pole 2: rho=1.0 not greater than 2.0"),
    "rho-repeated": ({"poles": ((1, 1), (1, 1))}, "pole 2: rho=1.0 not greater"),
    "rho-zero": ({"poles": ((0, 1),)}, "pole 1: rho=0.0 not greater than 0"),
    "rho-negative": ({"poles": ((-1, 1), (1, 1))}, "pole 1: rho=-1.0 not greater"),
    "h-negative": ({"poles": ((1, -1),)}, "pole 1: residue h=-1.0 not positive"),
    "h-zero": ({"poles": ((1, 1), (3, 0))}, "pole 2: residue h=0.0 not positive"),
    "d_neg-empty": ({"d_neg": ()}, "d_neg empty"),
    "every-problem": ({"poles": ((1, -1),), "A0": "nan", "d_neg": ()},
                      "d_neg empty; pole 1: residue h=-1.0 not positive; A0=nan not finite"),
}
for bad in ("nan", "+inf", "-inf"):
    BAD_SPECTRA.update({
        f"A0={bad}": ({"A0": bad}, f"A0={bad} not finite"),
        f"h0={bad}": ({"h0": bad}, f"h0={bad} not finite"),
        f"rho1={bad}": ({"poles": ((bad, 1), (3, 1))}, f"pole 1: rho={bad} not finite"),
        f"rho2={bad}": ({"poles": ((1, 1), (bad, 1))}, f"pole 2: rho={bad} not finite"),
        f"h1={bad}": ({"poles": ((1, bad), (3, 1))}, f"pole 1: h={bad} not finite"),
        f"h2={bad}": ({"poles": ((1, 1), (3, bad))}, f"pole 2: h={bad} not finite"),
        f"D(-1)={bad}": ({"d_neg": (bad, 0)}, f"D(-1)={bad} not finite"),
        f"D(-2)={bad}": ({"d_neg": (0, bad)}, f"D(-2)={bad} not finite"),
    })


@pytest.mark.parametrize("name", BAD_SPECTRA)
def test_spectral_data_rejects_bad_shapes(name):
    fields, problem = BAD_SPECTRA[name]
    with pytest.raises(SpectrumDataError) as info:
        _spectrum(**fields)
    assert problem in str(info.value)


def test_spectral_data_reads_plain_numbers():
    # ints, floats, Fractions and plain (rho, h) tuples give the same
    # spectrum, and the same estimates, as their mpf values
    poles, A0, h0 = ((1, 1.64), (3, Fraction(1, 3))), Fraction(-1, 2), -0.92
    d_neg = (Fraction(1, 24), 0, 0.5)
    plain = SpectralData("x", poles, A0, h0, d_neg)
    # each Fraction rounded once, to nearest
    near = lambda x: _rounded_once(x) if isinstance(x, Fraction) else mpf(x)
    ref = SpectralData("x", tuple(Pole(mpf(rho), near(h)) for rho, h in poles),
                       near(A0), mpf(h0), tuple(map(near, d_neg)))
    assert plain == ref and all(type(p) is Pole for p in plain.poles)
    assert solve_delta(plain, 1000) == solve_delta(ref, 1000)
    for n in (10, 1000, 10**6):
        for estimate in (log_estimate_khintchine, log_estimate_explicit):
            assert estimate(plain, n).log_value == estimate(ref, n).log_value
    assert kappa(plain) == kappa(ref)
    assert q_constant(plain) == q_constant(ref)


@pytest.mark.parametrize("bad", ["abc", object(), 1j])
def test_spectral_data_names_a_value_it_cannot_read(bad):
    with pytest.raises(SpectrumDataError, match="^A0=.* not a real number$"):
        SpectralData("x", ((1, 1),), bad, 0, (0,))
    with pytest.raises(SpectrumDataError, match="^pole 2: h=.* not a real number$"):
        SpectralData("x", ((1, 1), (3, bad)), 0, 0, (0,))


def test_spectral_data_names_every_problem_beside_a_value_it_cannot_read():
    with pytest.raises(SpectrumDataError) as got:
        SpectralData("x", (("x", -1),), "nan", 0, ())
    assert str(got.value) == (
        "pole 1: rho='x' not a real number; d_neg empty; "
        "pole 1: residue h=-1.0 not positive; A0=nan not finite")
    # a rho that is no number is skipped in the order check, not compared
    with pytest.raises(SpectrumDataError) as got:
        SpectralData("x", ((1, 1), ("a", 2), (0.5, "b")), 0, None, (0,))
    assert str(got.value) == (
        "h0=None not a real number; pole 2: rho='a' not a real number; "
        "pole 3: h='b' not a real number; pole 3: rho=0.5 not greater than 1.0")


def test_classification():
    assert derive_spectrum(make_preset("standard")).gap is None
    assert validate_spectrum(derive_spectrum(make_preset("standard"))) == SUBCRITICAL
    sd = derive_spectrum(make_preset("roots"))
    assert validate_spectrum(sd) == CRITICAL
    assert abs(sd.gap) < TOL
    assert validate_spectrum(_spectrum()) == SUBCRITICAL
    sd = _spectrum(poles=(("1.5", 1), (2, 1)))
    assert validate_spectrum(sd) == INELIGIBLE
    assert abs(sd.gap - 1) < TOL


def test_load_custom_roundtrip():
    doc = {
        "poles": [{"rho": 1, "h": "1.6449340668482264364724151666460251892"}],
        "A0": -0.5,
        "h0": "-0.91893853320467274178032973640561763986",
        "d_neg": ["0.04166666666666666666666666666666666667"],
    }
    sd = load_custom_spectrum(doc)
    ref = derive_spectrum(make_preset("standard"), L=1)
    assert abs(sd.poles[0].h - ref.poles[0].h) < TOL
    assert abs(sd.A0 - ref.A0) < TOL
    assert abs(sd.h0 - ref.h0) < TOL
    assert abs(sd.d_neg[0] - ref.d_neg[0]) < TOL
    assert abs(sd.theta - (sd.h0 + mp.euler * sd.A0)) < TOL


def test_load_custom_checks_theta():
    ref = derive_spectrum(make_preset("standard"), L=1)
    doc = {
        "poles": [{"rho": 1, "h": float(ref.poles[0].h)}],
        "A0": float(ref.A0),
        "h0": float(ref.h0),
        "d_neg": [float(ref.d_neg[0])],
        "theta": float(ref.theta),  # rounded to a double, like JSON
    }
    sd = load_custom_spectrum(doc)
    assert abs(sd.theta - ref.theta) < TOL
    assert abs(sd.theta - (sd.h0 + mp.euler * sd.A0)) < mpf("1e-30")
    load_custom_spectrum(dict(doc, theta=str(ref.theta)))
    load_custom_spectrum(dict(doc, theta=None))
    with pytest.raises(SpectrumDataError, match="theta"):
        load_custom_spectrum(dict(doc, theta=float(ref.theta) + 1e-9))
    with pytest.raises(SpectrumSchemaError):
        load_custom_spectrum(dict(doc, theta="abc"))


@pytest.mark.parametrize("theta", [float("nan"), float("inf"), float("-inf"), "nan"])
def test_load_custom_rejects_a_theta_that_is_not_finite(theta):
    # a nan theta failed the tolerance test, and at inf the tolerance was inf too
    doc = {"poles": [{"rho": 1, "h": 1}], "A0": 0, "h0": 0, "d_neg": [0]}
    with pytest.raises(SpectrumDataError, match="^theta = "):
        load_custom_spectrum(dict(doc, theta=theta))


def test_load_custom_schema_errors():
    with pytest.raises(SpectrumSchemaError):
        load_custom_spectrum([])
    # empty arrays and a bool are values, which SpectralData checks
    with pytest.raises(SpectrumDataError, match="^no poles$"):
        load_custom_spectrum({"poles": [], "A0": 0, "h0": 0, "d_neg": [0]})
    with pytest.raises(SpectrumSchemaError):
        load_custom_spectrum({"A0": 0, "h0": 0, "d_neg": [0]})
    with pytest.raises(SpectrumSchemaError):
        load_custom_spectrum(
            {"poles": [{"rho": 1}], "A0": 0, "h0": 0, "d_neg": [0]}
        )
    with pytest.raises(SpectrumDataError, match="^d_neg empty$"):
        load_custom_spectrum(
            {"poles": [{"rho": 1, "h": 1}], "A0": 0, "h0": 0, "d_neg": []}
        )
    with pytest.raises(SpectrumSchemaError):
        load_custom_spectrum(
            {"poles": [{"rho": 1, "h": 1}], "A0": 0, "h0": 0, "d_neg": [0],
             "extra": 1}
        )
    with pytest.raises(SpectrumDataError, match="^pole 1: h=True not a real number$"):
        load_custom_spectrum(
            {"poles": [{"rho": 1, "h": True}], "A0": 0, "h0": 0, "d_neg": [0]}
        )
    # an object where an array belongs, and a string, which is iterable
    for bad in ({"poles": {"rho": 1, "h": 1}}, {"d_neg": "0"}):
        with pytest.raises(SpectrumSchemaError, match="^poles and d_neg must be arrays$"):
            load_custom_spectrum(
                {"poles": [{"rho": 1, "h": 1}], "A0": 0, "h0": 0, "d_neg": [0], **bad}
            )


def test_load_custom_data_errors():
    with pytest.raises(SpectrumDataError):
        load_custom_spectrum(
            {
                "poles": [{"rho": 2, "h": 1}, {"rho": 1, "h": 1}],
                "A0": 0,
                "h0": 0,
                "d_neg": [0],
            }
        )
    with pytest.raises(SpectrumDataError):
        load_custom_spectrum(
            {"poles": [{"rho": 1, "h": -1}], "A0": 0, "h0": 0, "d_neg": [0]}
        )
    with pytest.raises(SpectrumDataError):
        load_custom_spectrum(
            {"poles": [{"rho": -1, "h": 1}], "A0": 0, "h0": 0, "d_neg": [0]}
        )


def test_load_custom_values_raise_what_spectral_data_raises():
    # a document's values reach SpectralData unread, so they raise its error,
    # which names every violation, and the same one as built directly; an
    # empty d_neg used to stop the document at a SpectrumSchemaError
    fields = {"poles": ((2, -1), (1, "inf")), "A0": "nan", "h0": 0, "d_neg": ()}
    with pytest.raises(SpectrumDataError) as direct:
        SpectralData("custom", **fields)
    doc = dict(fields, poles=[{"rho": rho, "h": h} for rho, h in fields["poles"]],
               d_neg=list(fields["d_neg"]))
    with pytest.raises(SpectrumDataError) as loaded:
        load_custom_spectrum(doc)
    assert str(loaded.value) == str(direct.value) == (
        "d_neg empty; pole 1: residue h=-1.0 not positive; pole 2: rho=1.0 not "
        "greater than 2.0; A0=nan not finite; pole 2: h=+inf not finite")


def test_load_custom_keeps_weights_out():
    doc = {
        "poles": [{"rho": 1, "h": 1.6449}],
        "A0": -0.5,
        "h0": -0.9189,
        "d_neg": [0.0417],
        "weights": [1, 1, 1],
        "label": "mine",
    }
    sd = load_custom_spectrum(doc)
    assert sd.label == "mine"
    assert not hasattr(sd, "weights")


def test_a_null_label_counts_as_absent():
    doc = {"poles": [{"rho": 1, "h": 1}], "A0": 0, "h0": 0, "d_neg": [0], "label": None}
    assert load_custom_spectrum(doc).label == "custom"
    # any other label that is no str is SpectralData's to refuse
    with pytest.raises(SpectrumDataError, match=r"^label=\[1, 2\] not a str$"):
        load_custom_spectrum(dict(doc, label=[1, 2]))


@pytest.mark.parametrize("fields, name", [
    ({"poles": (1,)}, "pole 1=1 not a sequence of 2"),
    ({"poles": ((1, 2, 3),)}, r"pole 1=\(1, 2, 3\) not a sequence of 2"),
    ({"poles": 5}, "poles=5 not a sequence"),
    ({"d_neg": 5}, "d_neg=5 not a sequence"),
    ({"d_neg": "12"}, "d_neg='12' not a sequence"),
], ids=("pole-not-a-pair", "pole-of-three", "poles-not-a-sequence",
        "d_neg-not-a-sequence", "d_neg-a-str"))
def test_spectral_data_names_a_shape_it_cannot_read(fields, name):
    fields = {"poles": ((1, 1),), "A0": 0, "h0": 0, "d_neg": (0,), **fields}
    with pytest.raises(SpectrumDataError, match=f"^{name}$"):
        SpectralData("x", **fields)

