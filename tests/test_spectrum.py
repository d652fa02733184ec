from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from oracles import ROOTS_H0, preset_spectrum_closed_form, zeta_neg_bernoulli
from subexp.errors import (
    CustomModelError,
    InvalidParametersError,
    SpectrumDataError,
    SpectrumSchemaError,
)
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
from subexp.specfun import hurwitz_zeta, riemann_zeta

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
    # d_neg[l-1] = zeta(1-l) * D_b(-l) up to L = 20, the deepest zeta and
    # Hurwitz zeta arguments derive_spectrum accepts, against
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


SPOOFED = {
    "standard-name-on-distinct-parts": ModelSpec("standard", SELECTION, lambda j: 1),
    "roots-name-on-unit-weights": ModelSpec("roots", MULTISET, lambda j: 1),
    "preset-weight-selection-base": ModelSpec(
        "standard", SELECTION, make_preset("standard").weight),
    "preset-weight-non-unit-scale": ModelSpec(
        "standard", MULTISET, make_preset("standard").weight,
        scale=lambda j: Fraction(1, 2)),
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
def test_quasi_polynomial_spectrum_matches_bernoulli(params):
    # against zeta(-n, q) = -B_{n+1}(q)/(n+1) and h = (c_i/a) zeta(i+2) i!
    a, r, c0, c1 = params
    model = ModelSpec("qp", MULTISET, QuasiPolynomial(a, ((r, 0, c0), (r, 1, c1))))
    for j in range(1, 3 * a + 1):
        assert model.b(j) == (c0 + c1 * j if j % a == r % a else 0)
    sd = derive_spectrum(model, L=6)
    q, z = mpf(r) / a, zeta_neg_bernoulli

    def db(l):  # D_b(-l)
        return c0 * mpf(a) ** l * z(l, q) + c1 * mpf(a) ** (l + 1) * z(l + 1, q)

    assert close(sd.A0, db(0))
    for l in range(1, 7):
        assert close(sd.d_neg[l - 1], z(l - 1) * db(l))
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
    with pytest.raises(InvalidParametersError):
        derive_spectrum(make_preset("standard"), L=21)


def test_derive_spectrum_rejects_custom():
    from subexp.model import custom_model

    with pytest.raises(CustomModelError):
        derive_spectrum(custom_model([1, 2, 3]))


def test_classification():
    assert validate_spectrum(derive_spectrum(make_preset("standard"))).classification == SUBCRITICAL
    report = validate_spectrum(derive_spectrum(make_preset("roots")))
    assert report.classification == CRITICAL
    assert abs(report.gap) < TOL
    sub = SpectralData(
        "sub", (Pole(mpf(1), mpf(1)), Pole(mpf(3), mpf(1))), mpf(0), mpf(0),
        (mpf(0),),
    )
    assert validate_spectrum(sub).classification == SUBCRITICAL
    inel = SpectralData(
        "inel", (Pole(mpf("1.5"), mpf(1)), Pole(mpf(2), mpf(1))), mpf(0), mpf(0),
        (mpf(0),),
    )
    report = validate_spectrum(inel)
    assert report.classification == INELIGIBLE
    assert abs(report.gap - 1) < TOL


def test_validation_flags_bad_data():
    unsorted = SpectralData(
        "x", (Pole(mpf(2), mpf(1)), Pole(mpf(1), mpf(1))), mpf(0), mpf(0), (mpf(0),)
    )
    assert not validate_spectrum(unsorted).ordered
    negative = SpectralData("x", (Pole(mpf(1), mpf(-1)),), mpf(0), mpf(0), (mpf(0),))
    assert not validate_spectrum(negative).positive


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


def test_load_custom_schema_errors():
    with pytest.raises(SpectrumSchemaError):
        load_custom_spectrum([])
    with pytest.raises(SpectrumSchemaError):
        load_custom_spectrum({"poles": [], "A0": 0, "h0": 0, "d_neg": [0]})
    with pytest.raises(SpectrumSchemaError):
        load_custom_spectrum({"A0": 0, "h0": 0, "d_neg": [0]})
    with pytest.raises(SpectrumSchemaError):
        load_custom_spectrum(
            {"poles": [{"rho": 1}], "A0": 0, "h0": 0, "d_neg": [0]}
        )
    with pytest.raises(SpectrumSchemaError):
        load_custom_spectrum(
            {"poles": [{"rho": 1, "h": 1}], "A0": 0, "h0": 0, "d_neg": []}
        )
    with pytest.raises(SpectrumSchemaError):
        load_custom_spectrum(
            {"poles": [{"rho": 1, "h": 1}], "A0": 0, "h0": 0, "d_neg": [0],
             "extra": 1}
        )
    with pytest.raises(SpectrumSchemaError):
        load_custom_spectrum(
            {"poles": [{"rho": 1, "h": True}], "A0": 0, "h0": 0, "d_neg": [0]}
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
