import random
from fractions import Fraction

import pytest

from oracles import divisor_k_lambda
from subexp.errors import InvalidParametersError, UndefinedWeightError
from subexp.model import (
    EXPONENTIAL,
    MULTISET,
    SELECTION,
    ModelSpec,
    QuasiPolynomial,
    custom_model,
    lambda_coeffs,
    llt_condition_report,
    make_preset,
)


def test_preset_weights():
    std = make_preset("standard")
    roots = make_preset("roots")
    cong = make_preset("congruent", 2, 1)
    assert std.b(5) == 1
    assert roots.b(5) == 11
    assert cong.b(4) == 0
    assert cong.b(7) == 1


def test_congruent_canonicalization():
    # b is reduced mod a; congruent(1,1) selects every part
    c31 = make_preset("congruent", 3, 1)
    c34 = make_preset("congruent", 3, 4)
    assert [c31.b(j) for j in range(1, 10)] == [c34.b(j) for j in range(1, 10)]
    c11 = make_preset("congruent", 1, 1)
    assert all(c11.b(j) == 1 for j in range(1, 20))


def test_congruent_requires_coprime():
    with pytest.raises(InvalidParametersError):
        make_preset("congruent", 4, 2)
    with pytest.raises(InvalidParametersError):
        make_preset("congruent", 6, 3)
    with pytest.raises(InvalidParametersError):
        make_preset("congruent", 2, 0)
    with pytest.raises(InvalidParametersError):
        make_preset("congruent")


def test_quasi_polynomial_rejects_bad_terms():
    # modulus below 1, residue outside 1..a, negative degree
    for a, terms in ((0, ()), (3, ((0, 0, 1),)), (3, ((4, 0, 1),)), (1, ((1, -1, 1),))):
        with pytest.raises(InvalidParametersError):
            QuasiPolynomial(a, terms)


def test_unknown_preset():
    with pytest.raises(InvalidParametersError):
        make_preset("cubes")


def test_base_log_taylor():
    assert [MULTISET.log_taylor(m) for m in (1, 2, 3)] == [
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 3),
    ]
    assert [SELECTION.log_taylor(m) for m in (1, 2, 3, 4)] == [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(1, 3),
        Fraction(-1, 4),
    ]
    assert [EXPONENTIAL.log_taylor(m) for m in (1, 2, 5)] == [1, 0, 0]


def test_lambda_small_values():
    std = lambda_coeffs(make_preset("standard"), 6)
    assert std.values[0] == 1  # k=1: single term j=m=1
    assert std.values[5] == 2  # k=6: (1+2+3+6)/6
    roots = lambda_coeffs(make_preset("roots"), 2)
    assert roots.values[1] == Fraction(13, 2)  # 3*(1/2) + 5*1
    # k*Lambda_k are ints exactly when f has integer coefficients (multiset
    # or selection base, a_j = 1, integer b_j); Lambda_k stays exact
    # f = (1 + z)^3 (1 + z^2): 2*Lambda_2 = -3 + 2
    sel = lambda_coeffs(custom_model([3, 1], base=SELECTION), 2)
    assert sel.k_values == (3, -1)
    for lam in (std, roots, sel):
        assert all(type(x) is int for x in lam.k_values)
        assert all(type(x) is Fraction for x in lam.values)
    third = lambda_coeffs(custom_model([Fraction(1, 3)] * 2), 2)
    assert third.k_values == (Fraction(1, 3), Fraction(1))
    # b_j = 1/j and e^z have integral k*Lambda_k but rational c_n
    inverse = lambda_coeffs(custom_model([1, Fraction(1, 2)]), 2)
    assert inverse.k_values == (1, 2)
    sets = lambda_coeffs(ModelSpec("sets", EXPONENTIAL, lambda j: 1), 3)
    assert sets.k_values == (1, 2, 3)
    for lam in (third, inverse, sets):
        assert all(type(x) is Fraction for x in lam.k_values)


def test_k_lambda_is_divisor_sum():
    for preset in (make_preset("standard"), make_preset("roots"),
                   make_preset("congruent", 3, 2)):
        lam = lambda_coeffs(preset, 200)
        for k in range(1, 201):
            want = divisor_k_lambda(preset.weight, k)
            assert lam.k_lambda(k) == want
            assert want.denominator == 1


def test_lambda_additive_in_weights():
    rng = random.Random(40917)
    N = 40
    for _ in range(5):
        w1 = [Fraction(rng.randrange(0, 5), rng.randrange(1, 4)) for _ in range(N)]
        w2 = [Fraction(rng.randrange(0, 5), rng.randrange(1, 4)) for _ in range(N)]
        m1 = custom_model(w1)
        m2 = custom_model(w2)
        msum = custom_model([x + y for x, y in zip(w1, w2)])
        l1 = lambda_coeffs(m1, N).values
        l2 = lambda_coeffs(m2, N).values
        ls = lambda_coeffs(msum, N).values
        assert all(a + b == c for a, b, c in zip(l1, l2, ls))


def test_roots_weight_telescoping():
    roots = make_preset("roots")
    total = 0
    for j in range(1, 1001):
        total += roots.b(j)
        assert total == (j + 1) ** 2 - 1


def test_lambda_selection_base():
    # distinct parts: Lambda_k = sum_{jm=k} (-1)^(m+1)/m
    model = ModelSpec("distinct", SELECTION, lambda j: Fraction(1))
    lam = lambda_coeffs(model, 4)
    assert lam.values[0] == 1
    assert lam.values[1] == Fraction(1) - Fraction(1, 2)
    assert lam.values[3] == Fraction(1) - Fraction(1, 2) - Fraction(1, 4)


def test_weight_table_exhaustion():
    short = custom_model([1, 2, 3])
    with pytest.raises(UndefinedWeightError):
        lambda_coeffs(short, 10)
    # within reach it works
    lam = lambda_coeffs(short, 3)
    assert lam.values[0] == 1


def test_negative_weight_rejected():
    bad = custom_model([1, -1])
    with pytest.raises(InvalidParametersError):
        lambda_coeffs(bad, 2)


def test_scale_sequence_domain():
    bad = ModelSpec("x", MULTISET, lambda j: Fraction(1), scale=lambda j: Fraction(2))
    with pytest.raises(InvalidParametersError):
        lambda_coeffs(bad, 3)


def test_scaled_lambda_values():
    # a_j = 1/2 for all j: Lambda_1 = b_1 g_1 a_1 = 1/2
    half = ModelSpec(
        "half", MULTISET, lambda j: Fraction(1), scale=lambda j: Fraction(1, 2)
    )
    lam = lambda_coeffs(half, 4)
    assert lam.values[0] == Fraction(1, 2)
    # k=2: j=2,m=1 gives 1/2; j=1,m=2 gives (1/2)(1/2)^2 = 1/8
    assert lam.values[1] == Fraction(1, 2) + Fraction(1, 8)


def test_llt_report_counts():
    std = make_preset("standard")
    rows = llt_condition_report(std, 100, 3)
    by_key = {(r["q"], r["n"]): r for r in rows}
    assert by_key[(2, 100)]["count"] == 50
    assert by_key[(3, 100)]["count"] == 67  # 100 - 33 multiples of 3
    cong = make_preset("congruent", 2, 1)
    rows = llt_condition_report(cong, 100, 3)
    by_key = {(r["q"], r["n"]): r for r in rows}
    assert by_key[(2, 100)]["count"] == 50  # all weight-1 parts are odd
    rows99 = llt_condition_report(cong, 99, 3)
    by_key99 = {(r["q"], r["n"]): r for r in rows99}
    assert by_key99[(3, 99)]["count"] == 33  # 50 odd minus 17 odd multiples of 3


def test_llt_report_has_no_verdict():
    rows = llt_condition_report(make_preset("standard"), 64, 2)
    assert all(set(r) == {"q", "n", "count", "log_sq", "ratio"} for r in rows)
    for r in rows:
        assert r["ratio"] > 0


def test_llt_report_domain():
    std = make_preset("standard")
    with pytest.raises(InvalidParametersError):
        llt_condition_report(std, 8, 2)
    with pytest.raises(InvalidParametersError):
        llt_condition_report(std, 100, 65)
