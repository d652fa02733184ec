import math
import random
import re
from fractions import Fraction

import pytest

from oracles import (
    EXPONENTIAL_G,
    MULTISET_G,
    SELECTION_G,
    divisor_k_lambda,
    log_coefficients,
)
from subexp.errors import InvalidParametersError, UndefinedWeightError
from subexp.exact import exact_coefficients, product_dp
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


def lambdas(lam):
    """Lambda_1..Lambda_N, exact, from the stored k*Lambda_k."""
    return tuple(Fraction(kv, k) for k, kv in enumerate(lam.k_values, start=1))


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
    # parameters must be ints, not floats or bools
    for a, b in ((3.0, 1), (3, 1.0), (3, True), (True, 1)):
        with pytest.raises(InvalidParametersError):
            make_preset("congruent", a, b)


def test_quasi_polynomial_rejects_bad_terms():
    # modulus below 1, residue outside 1..a, negative degree; a non-int
    # modulus, residue or degree; a coefficient that is no rational number;
    # terms that are not a sequence of triples
    for a, terms in ((0, ()), (3, ((0, 0, 1),)), (3, ((4, 0, 1),)), (1, ((1, -1, 1),)),
                     (2.0, ((1, 0, 1),)), (True, ((1, 0, 1),)), (2, ((1.0, 0, 1),)),
                     (2, ((1, 1.0, 1),)), (2, ((1, 0, "x"),)), (2, ((1, 0, "1"),)),
                     (2, ((1, 0, None),)), (2, ((1, 0, float("nan")),)),
                     (1, 5), (1, ((1, 0),))):
        with pytest.raises(InvalidParametersError):
            QuasiPolynomial(a, terms)


def test_quasi_polynomial_rejects_fractional_float_coefficients():
    # Fraction(0.1) == 0.1, so a float c used to enter as its binary value
    # 3602879701896397/36028797018963968; a whole float is exact and passes
    for c in (0.1, 0.5, -2.5, 1e-300):
        with pytest.raises(InvalidParametersError):
            QuasiPolynomial(1, ((1, 0, c),))
    assert QuasiPolynomial(2, ((1, 0, 1.0), (2, 1, 3.0))).table(4) == [1.0, 6.0, 1.0, 12.0]
    assert QuasiPolynomial(1, ((1, 0, Fraction(1, 10)),)).table(1) == [Fraction(1, 10)]


def test_whole_float_coefficients_count_exactly():
    # c*j^i used to be a float for c = 2.0: b_1553 = 2*1553**5 was rounded,
    # and the counters, which all read the same table, agreed on wrong counts
    rule = lambda i, c: ModelSpec("q", MULTISET, QuasiPolynomial(1, ((1, i, c),)))
    assert rule(5, 2.0).weights(5000) == rule(5, 2).weights(5000)
    assert exact_coefficients(rule(5, 2.0), 1600) == exact_coefficients(rule(5, 2), 1600)
    # product_dp takes 4 s at N = 1600; 2*7**19 is the first weight a double rounds
    assert QuasiPolynomial(1, ((1, 19, 2.0),)).terms == ((1, 19, 2),)
    assert product_dp(rule(19, 2.0), 40) == product_dp(rule(19, 2), 40)


def test_a_rule_returns_a_rational_weight():
    # b reads what a callable rule returns as a QuasiPolynomial reads c: 0.1
    # used to be its binary value, True 1 and "1/2" one half
    for bad in (0.1, True, "1/2", math.nan, math.inf, 1j, [1]):
        with pytest.raises(InvalidParametersError, match=r"^b_3 = .* not a rational"):
            ModelSpec("r", MULTISET, lambda j: bad).b(3)
    for good, want in ((2.0, 2), (Fraction(4, 2), 2), (Fraction(1, 3), Fraction(1, 3))):
        got = ModelSpec("r", MULTISET, lambda j: good).b(3)
        assert got == want and type(got) is type(want)


def test_custom_model_rejects_fractional_float_weights():
    # the same rule for a weight table: 0.1 names its index, 2.0 is exact
    for w in (0.1, 0.5, 1e-300):
        with pytest.raises(InvalidParametersError, match=r"weights\[1\] .*\(b_2\)"):
            custom_model([1, w])
    assert custom_model([2.0, "1/10", "0.1"]).weights(3) == [2, Fraction(1, 10),
                                                              Fraction(1, 10)]
    with pytest.raises(InvalidParametersError, match=r"weights\[0\] = '1/0'"):
        custom_model(["1/0"])  # a bare ZeroDivisionError before


def test_unknown_preset():
    with pytest.raises(InvalidParametersError):
        make_preset("cubes")


def test_only_congruent_takes_a_and_b():
    for kind in ("standard", "roots"):
        for a, b in ((5, 7), (5, None), (None, 7)):
            with pytest.raises(InvalidParametersError):
                make_preset(kind, a, b)
        assert make_preset(kind, None, None) == make_preset(kind)


def test_model_rejects_a_base_that_is_no_base_function():
    # lambda_coeffs would count a base given by name as a multiset
    for base in ("selection", None):
        with pytest.raises(InvalidParametersError):
            ModelSpec("x", base, lambda j: 1)


@pytest.mark.parametrize("kind", [None, [1], 5], ids=("None", "list", "int"))
def test_model_rejects_a_kind_that_is_no_str(kind):
    # derive_spectrum made the label of such a kind None, [1] or 5
    with pytest.raises(InvalidParametersError, match="^model kind not a str: "):
        ModelSpec(kind, MULTISET, lambda j: 1)


def test_lambda_small_values():
    std = lambda_coeffs(make_preset("standard"), 6)
    assert lambdas(std)[0] == 1  # k=1: single term j=m=1
    assert lambdas(std)[5] == 2  # k=6: (1+2+3+6)/6
    roots = lambda_coeffs(make_preset("roots"), 2)
    assert lambdas(roots)[1] == Fraction(13, 2)  # 3*(1/2) + 5*1
    # k*Lambda_k are ints exactly when f has integer coefficients (multiset
    # or selection base, integer b_j); Lambda_k stays exact
    # f = (1 + z)^3 (1 + z^2): 2*Lambda_2 = -3 + 2
    sel = lambda_coeffs(custom_model([3, 1], base=SELECTION), 2)
    assert sel.k_values == (3, -1)
    for lam in (std, roots, sel):
        assert all(type(x) is int for x in lam.k_values)
        assert all(type(x) is Fraction for x in lambdas(lam))
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


def test_lambda_matches_the_double_sum_on_every_base():
    rng = random.Random(1705)
    N = 60
    tables = {
        "ints": [rng.randrange(0, 5) for _ in range(N)],
        "sparse ints": [rng.choice((0, 0, 0, 1, 7)) for _ in range(N)],
        "fractions": [Fraction(rng.randrange(5), rng.randrange(1, 4)) for _ in range(N)],
    }
    for base, g in ((MULTISET, MULTISET_G), (SELECTION, SELECTION_G),
                    (EXPONENTIAL, EXPONENTIAL_G)):
        for name, table in tables.items():
            lam = lambda_coeffs(custom_model(table, base=base), N)
            want = log_coefficients(lambda j: table[j - 1], g, N)
            assert lambdas(lam) == tuple(want), (base, name)
            integral = base is not EXPONENTIAL and all(
                Fraction(x).denominator == 1 for x in table)
            kind = int if integral else Fraction
            assert all(type(x) is kind for x in lam.k_values), (base, name)


def test_lambda_additive_in_weights():
    rng = random.Random(40917)
    N = 40
    for _ in range(5):
        w1 = [Fraction(rng.randrange(0, 5), rng.randrange(1, 4)) for _ in range(N)]
        w2 = [Fraction(rng.randrange(0, 5), rng.randrange(1, 4)) for _ in range(N)]
        m1 = custom_model(w1)
        m2 = custom_model(w2)
        msum = custom_model([x + y for x, y in zip(w1, w2)])
        l1 = lambdas(lambda_coeffs(m1, N))
        l2 = lambdas(lambda_coeffs(m2, N))
        ls = lambdas(lambda_coeffs(msum, N))
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
    assert lambdas(lam)[0] == 1
    assert lambdas(lam)[1] == Fraction(1) - Fraction(1, 2)
    assert lambdas(lam)[3] == Fraction(1) - Fraction(1, 2) - Fraction(1, 4)


WEIGHT_MODELS = {
    "standard": make_preset("standard"),
    "roots": make_preset("roots"),
    "congruent-3-1": make_preset("congruent", 3, 1),
    "congruent-7-5": make_preset("congruent", 7, 5),
    "fraction-c": ModelSpec("q", MULTISET, QuasiPolynomial(
        3, ((1, 1, Fraction(1, 2)), (3, 0, 2), (1, 2, Fraction(3, 4))))),
    "whole-fraction-c": ModelSpec("q", MULTISET, QuasiPolynomial(
        2, ((1, 1, Fraction(4, 2)), (2, 0, 1)))),
    # b_j = j/2 on even j: Fraction products that are whole
    "whole-fraction-products": ModelSpec("q", MULTISET, QuasiPolynomial(
        2, ((2, 1, Fraction(1, 2)),))),
    "int-table": custom_model([1, 0, 3, 2] * 10),
    "fraction-table": custom_model([Fraction(1, 2), 1, 2] * 13),
    "lambda": ModelSpec("l", MULTISET, lambda j: j % 3),
    "fraction-lambda": ModelSpec("l", MULTISET, lambda j: Fraction(1, j)),
}


@pytest.mark.parametrize("model", WEIGHT_MODELS.values(), ids=WEIGHT_MODELS)
def test_weights_equal_b(model):
    for N in (0, 1, 2, 39):
        table = model.weights(N)
        assert table == [model.b(j) for j in range(1, N + 1)]
        # all ints exactly when every b_j is whole, else all Fractions
        whole = all(x.denominator == 1 for x in table)
        assert all(type(x) is (int if whole else Fraction) for x in table)


def test_weights_int_or_fraction_per_prefix():
    # b_1 = 1 is whole, b_2 = 1/2 is not: the rule looks at b_1..b_N only
    model = custom_model([1, Fraction(1, 2)])
    assert model.weights(1) == [1] and type(model.weights(1)[0]) is int
    assert [type(x) for x in model.weights(2)] == [Fraction, Fraction]
    assert model.weights(2) == [1, Fraction(1, 2)]


def _boom(j):
    if j == 5:
        raise ZeroDivisionError("no b_5")
    return 1


@pytest.mark.parametrize(
    "model, j, error",
    [
        (ModelSpec("l", MULTISET, lambda j: 3 - j), 4, InvalidParametersError),
        (custom_model([1, 2, 3]), 4, UndefinedWeightError),
        (custom_model([Fraction(1, 2), 2, 3]), 4, UndefinedWeightError),
        (ModelSpec("l", MULTISET, _boom), 5, UndefinedWeightError),
        (ModelSpec("l", MULTISET, lambda j: None if j == 6 else 1), 6,
         UndefinedWeightError),
    ],
    ids=("negative-rule",
         "past-table", "past-fraction-table", "rule-raises", "rule-returns-none"),
)
def test_weights_raise_what_b_raises_at_the_first_fault(model, j, error):
    with pytest.raises(error) as want:
        model.b(j)
    assert re.search(rf"\b(j=|b_){j}\b", str(want.value))
    for N in (j, j + 3):
        with pytest.raises(error) as got:
            model.weights(N)
        assert str(got.value) == str(want.value)
    assert model.weights(j - 1) == [model.b(i) for i in range(1, j)]


def test_weight_table_exhaustion():
    short = custom_model([1, 2, 3])
    with pytest.raises(UndefinedWeightError):
        lambda_coeffs(short, 10)
    # within reach it works
    lam = lambda_coeffs(short, 3)
    assert lambdas(lam)[0] == 1


def test_negative_weight_rejected():
    # when the model is built, not when b_2 is first read; past the
    # int-to-str limit, where its repr would raise, a weight is named by bits
    huge = -(10**5000)
    for weights in ([1, -1], [-1], ["-1/2"], [Fraction(-1, 3)], [1, huge],
                    [Fraction(huge, 3)]):
        with pytest.raises(InvalidParametersError, match=r"b_\d+ < 0"):
            custom_model(weights)
    with pytest.raises(InvalidParametersError, match=r"^b_1 = an int of 16610 bits < 0$"):
        ModelSpec("r", MULTISET, lambda j: huge).b(1)


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


@pytest.mark.parametrize(
    "model",
    [
        make_preset("standard"),
        make_preset("roots"),
        make_preset("congruent", 3, 1),
        custom_model([Fraction(1, j) for j in range(1, 301)]),
    ],
    ids=("standard", "roots", "congruent-3-1", "fraction-table"),
)
def test_llt_report_matches_a_per_row_sum(model):
    rows = llt_condition_report(model, 300, 9)
    assert len(rows) == 8 * 6  # q = 2..9 by n = 16, 32, ..., 256, 300
    for r in rows:
        q, n = r["q"], r["n"]
        count = sum(model.b(k) for k in range(1, n + 1) if k % q != 0)
        assert r["count"] == count
        assert r["ratio"] == float(count) / math.log(n) ** 2
        if model.kind != "custom":
            assert type(r["count"]) is int


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
