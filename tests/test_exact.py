import importlib.util
import itertools
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import distinct_dp, divisor_k_lambda, naive_recurrence, partitions_brute
from subexp import exact
from subexp.errors import (
    InexactDivisionError,
    InvalidParametersError,
    UndefinedWeightError,
    UnsupportedModelError,
)
from subexp.exact import exact_coefficients, pentagonal_oracle, product_dp
from subexp.model import (
    EXPONENTIAL,
    SELECTION,
    ModelSpec,
    custom_model,
    lambda_coeffs,
    make_preset,
)

# small integer weight tables b_1..b_N; N up to 300 crosses several
# levels of the convolution kernel's recursion
weight_tables = st.integers(1, 300).flatmap(
    lambda N: st.lists(st.integers(0, 6), min_size=N, max_size=N)
)


def int_polys(max_bits: int, max_len: int, min_len: int = 1):
    """Nonnegative int lists of length min_len..max_len: a run of leading
    zeros, so limb planes start at odd and even indices, then entries of 0
    to max_bits bits."""
    entries = st.integers(0, max_bits).flatmap(lambda b: st.integers(0, 2**b - 1))
    return st.integers(min_len, max_len).flatmap(
        lambda n: st.integers(0, n - 1).flatmap(
            lambda z: st.lists(entries, min_size=n - z, max_size=n - z).map(
                lambda body: [0] * z + body
            )
        )
    )


@st.composite
def middle_product_cases(draw, max_bits=700, max_len=70):
    # 700 bits: 1 to 6 limb planes.  The kernels' contract, as _solve keeps
    # it: x, y >= 0 and len(x) < len(y)
    y = draw(int_polys(max_bits, max_len, min_len=2))
    x = draw(int_polys(max_bits, len(y) - 1))
    return x, y


def _middle_product(x: list, y: list) -> list:
    # coefficients len(x)..len(y)-1 of x*y, schoolbook
    return [sum(x[i] * y[k - i] for i in range(len(x))) for k in range(len(x), len(y))]


def _kernel_product(kernel, x: list, y: list) -> list:
    # the same coefficients from one kernel, added into a zero list
    acc = [0] * (len(y) - len(x))
    kernel(x, y, acc, -len(x))
    return acc


def _k_lambda(model, N):
    lam = lambda_coeffs(model, N)
    return [int(lam.k_lambda(k)) for k in range(1, N + 1)]


def test_pentagonal_small_values():
    assert pentagonal_oracle(4).coeffs == (1, 1, 2, 3, 5)
    assert pentagonal_oracle(0).coeffs == (1,)
    assert pentagonal_oracle(10)[10] == 42


def test_pentagonal_matches_brute_enumeration():
    series = pentagonal_oracle(25)
    for n in range(26):
        assert series[n] == partitions_brute(n)


def test_pentagonal_matches_naive_recurrence_at_every_n():
    # N = 300 passes 28 generalized pentagonal offsets; p(n) at every n, and
    # every N, meets each offset both in and just out of reach
    N = 300
    kl = [int(divisor_k_lambda(lambda j: 1, k)) for k in range(1, N + 1)]
    want = naive_recurrence(kl, N)
    assert [pentagonal_oracle(n)[n] for n in range(N + 1)] == want
    assert list(pentagonal_oracle(N).coeffs) == want


def test_recurrence_standard():
    series = exact_coefficients(make_preset("standard"), 100)
    assert series[0] == 1
    assert series[10] == 42
    assert series[100] == 190569292
    pent = pentagonal_oracle(100)
    assert series.coeffs == pent.coeffs


def test_recurrence_congruent():
    series = exact_coefficients(make_preset("congruent", 2, 1), 10)
    assert series[10] == 10  # partitions of 10 into odd parts


def test_three_way_small():
    for model in (
        make_preset("standard"),
        make_preset("roots"),
        make_preset("congruent", 3, 2),
    ):
        rec = exact_coefficients(model, 60)
        dp = product_dp(model, 60)
        assert rec.coeffs == dp.coeffs
        assert all(isinstance(c, int) for c in rec.coeffs)
        assert all(c >= 0 for c in rec.coeffs)


def test_standard_monotone():
    series = exact_coefficients(make_preset("standard"), 200)
    for n in range(1, 200):
        assert series[n + 1] >= series[n]


def test_euler_identity_congruent_2_1():
    # odd-part counts equal distinct-part counts
    series = exact_coefficients(make_preset("congruent", 2, 1), 200)
    assert list(series.coeffs) == distinct_dp(200)


def test_selection_base_counts_distinct_parts():
    model = ModelSpec("distinct", SELECTION, lambda j: Fraction(1))
    series = exact_coefficients(model, 120)
    assert list(series.coeffs) == distinct_dp(120)
    assert all(isinstance(c, int) for c in series.coeffs)


def test_exponential_base_rational_coeffs():
    # f = exp(z + z^2 + ...): c_2 = 3/2, c_3 = 13/6 by hand expansion
    model = ModelSpec("sets", EXPONENTIAL, lambda j: Fraction(1))
    series = exact_coefficients(model, 3)
    assert series[0] == 1
    assert series[1] == 1
    assert series[2] == Fraction(3, 2)
    assert series[3] == Fraction(13, 6)


def test_fractional_weights_rational_path():
    model = custom_model([Fraction(1, 2), Fraction(1, 3)])
    series = exact_coefficients(model, 2)
    # Lambda_1 = 1/2, Lambda_2 = 1/4 + 1/3 = 7/12;
    # exp expansion: c_2 = Lambda_2 + Lambda_1^2/2 = 7/12 + 1/8 = 17/24
    assert series[1] == Fraction(1, 2)
    assert series[2] == Fraction(17, 24)


@settings(max_examples=25, deadline=None)
@given(weight_tables)
@example([6] * 300)
@example([0] * 40 + [1, 0, 2] * 80)  # k*Lambda_k = 0 below k = 41
@example([50] * 200)  # b_j > N // j from j = 5: product_dp's binomial pass
@example([0] * 299 + [1])  # a lone top factor: the zero stretch is all of c[1:]
@example([0] * 299 + [5])  # the same by one binomial power
@example([0] * 200 + [9] * 100)  # heavy factors near the top, binomial each
@example([0] * 150 + [3, 1] * 75)  # both passes from the top, interleaved
@example([0] * 4 + [3] * 8)  # binomial factors whose slice c[s + low:] is not empty
def test_kernel_matches_naive_and_product_dp_multiset(weights):
    model = custom_model(weights)
    N = len(weights)
    kl = _k_lambda(model, N)
    want = naive_recurrence(kl, N)
    assert want is not None
    assert exact._recurrence_int(kl, N) == want
    assert list(exact_coefficients(model, N).coeffs) == want
    assert list(product_dp(model, N).coeffs) == want


def test_product_dp_matches_naive_on_every_small_table():
    # product_dp applies factors from the largest part down and skips the
    # zero stretch below the smallest part so far; small tables put that
    # part, the block starts and the binomial powers at every position:
    # every table in {0,1,2}^N for N <= 7, then heavy tails up to N = 12
    tables = [list(t) for N in range(1, 8) for t in itertools.product(range(3), repeat=N)]
    tables += [[0] * k + [v] * (12 - k) for v in (3, 7) for k in range(12)]
    for weights in tables:
        N = len(weights)
        kl = [int(divisor_k_lambda(lambda j: weights[j - 1], k)) for k in range(1, N + 1)]
        got = list(product_dp(custom_model(weights), N).coeffs)
        assert got == naive_recurrence(kl, N), weights


@settings(max_examples=25, deadline=None)
@given(weight_tables)
@example([3] * 300)
def test_kernel_matches_naive_selection(weights):
    # selection base: k*Lambda_k = sum_{j | k} (-1)^(k/j+1) j b_j can be < 0
    model = custom_model(weights, base=SELECTION)
    N = len(weights)
    kl = _k_lambda(model, N)
    want = naive_recurrence(kl, N)
    assert want is not None
    assert exact._recurrence_int(kl, N) == want
    assert list(exact_coefficients(model, N).coeffs) == want


@settings(max_examples=200, deadline=None)
@given(middle_product_cases())
@example(([7], [2**700 - 1] * 2))  # x of length 1: no odd-indexed chunks
# planes start at index 3 in x and at 1, 2 and 3 in y
@example(([0, 0, 0, 2**300], [0, 5, 2**200, 2**600, 0, 0, 0, 0]))
def test_middle_product_matches_schoolbook(case):
    x, y = case
    assert _kernel_product(exact._ks2_product, x, y) == _middle_product(x, y)


ASCENDING = [2 ** (100 * i) - 1 for i in range(25)]
WIDE = [2**300 + k for k in range(44)]


@settings(max_examples=100, deadline=None)
@given(
    # up to 753 digits, over the 640-digit int-to-str floor
    middle_product_cases(2500, 40),
    st.sampled_from([exact._DIGIT_CAP, 20_000, 2_000]),
)
@example(([2**2500 - 1] * 3, [2**2500 - 1] * 5), 2_000)  # slots over 640 digits
@example(([2**2500 - 1] * 20, [5, 7] * 15), 2_000)  # 21 planes
# widths ascend, so each higher plane starts at a later x entry, and
# reaches fewer y entries: 44 of them, and at len(y) = 30, 13 in plane 2
@example((ASCENDING, WIDE), 2_000)
@example((ASCENDING, WIDE[:30]), 20_000)
def test_decimal_product_matches_schoolbook(case, cap):
    # the decimal kernel under the lowest int-to-str limit Python allows;
    # small caps cut x into several planes
    x, y = case
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with mock.patch.object(exact, "_DIGIT_CAP", cap):
            got = _kernel_product(exact._decimal_product, x, y)
    finally:
        sys.set_int_max_str_digits(old)
    assert got == _middle_product(x, y)


@pytest.mark.parametrize(
    "model",
    [
        make_preset("roots"),
        custom_model([4 if j % 2 == 0 else 1 for j in range(2100)], base=SELECTION),
    ],
    ids=("roots", "selection"),
)
def test_decimal_kernel_matches_ks2_across_crossover(model, monkeypatch):
    # at N = 2100 the blocks of length 2101 and 1050-1051 reach the decimal
    # kernel and shorter ones KS2; the selection table has k*Lambda_k < 0
    # at every even k.  A wrong product that makes a division inexact
    # raises InexactDivisionError here
    kl = _k_lambda(model, 2100)
    with mock.patch.object(
        exact, "_decimal_product", wraps=exact._decimal_product
    ) as spy:
        got = exact._recurrence_int(kl, 2100)
        assert spy.call_count >= 3
        monkeypatch.setattr(exact, "_DECIMAL_MIN_LEN", 10**9)
        spy.reset_mock()
        assert got == exact._recurrence_int(kl, 2100)
        assert spy.call_count == 0


@pytest.mark.parametrize(
    "model",
    [
        make_preset("roots"),
        custom_model([4 if j % 2 == 0 else 1 for j in range(2100)], base=SELECTION),
    ],
    ids=("roots", "selection"),
)
def test_kernels_get_nonnegative_operands_of_the_block_length(model):
    # the kernels' contract, as _solve keeps it: x = c[l:m] and each sign
    # part of k*Lambda_k are >= 0, and len(x) < len(y); at N = 2100 both
    # kernels run, and on the selection table each sign part reaches its
    # own accumulator
    operands = []

    def spy(kernel):
        def record(x, y, acc, at):
            operands.append((kernel, x, y, acc))
            kernel(x, y, acc, at)
        return record

    kernels = {exact._ks2_product, exact._decimal_product}
    with (
        mock.patch.object(exact, "_ks2_product", spy(exact._ks2_product)),
        mock.patch.object(exact, "_decimal_product", spy(exact._decimal_product)),
    ):
        exact_coefficients(model, 2100)
    assert {kernel for kernel, *_ in operands} == kernels
    assert len({id(acc) for *_, acc in operands}) == (2 if model.base is SELECTION else 1)
    for _, x, y, _ in operands:
        assert len(x) < len(y)
        assert min(x) >= 0 and min(y) >= 0


def _leaf_lengths(kl: list, N: int) -> tuple:
    # c_0..c_N, and the lengths of the blocks _solve ran as direct sums:
    # those it did not split at their midpoint
    with mock.patch.object(exact, "_solve", wraps=exact._solve) as spy:
        c = exact._recurrence_int(kl, N)
    blocks = {call.args[5:] for call in spy.call_args_list}
    return c, [r - l for l, r in blocks if (l, (l + r) // 2) not in blocks]


@pytest.mark.parametrize(
    "model",
    [
        make_preset("roots"),
        custom_model([4 if j % 2 == 0 else 1 for j in range(2100)], base=SELECTION),
    ],
    ids=("roots", "selection"),
)
def test_width_rule_leaves_match_fixed_leaves(model, monkeypatch):
    # c_2100 has 605 bits on roots and 180 on the selection table, so
    # blocks of up to 263 and 66 terms are direct sums; without the width
    # rule no leaf is longer than 32
    kl = _k_lambda(model, 2100)
    got, leaves = _leaf_lengths(kl, 2100)
    assert max(leaves) > 32
    monkeypatch.setattr(exact, "_BITS_PER_LEAF_TERM", 10**9)
    want, leaves = _leaf_lengths(kl, 2100)
    assert max(leaves) <= 32
    assert got == want


def test_without_libmpdec_every_block_runs_ks2(monkeypatch):
    # where import _decimal fails, exact.py still loads, with _CTX None,
    # and counts the same by KS2 alone; at N = 1100 the top block (1101
    # terms) crosses _DECIMAL_MIN_LEN.  A second copy is loaded from the
    # same file, so subexp.exact and the names bound from it stay as they are
    model = make_preset("roots")
    with mock.patch.object(
        exact, "_decimal_product", wraps=exact._decimal_product
    ) as spy:
        want = exact_coefficients(model, 1100).coeffs
    assert spy.call_count >= 1
    monkeypatch.setitem(sys.modules, "_decimal", None)
    spec = importlib.util.spec_from_file_location("subexp.exact_copy", exact.__file__)
    copy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(copy)
    assert copy._CTX is None
    with mock.patch.object(
        copy, "_decimal_product", wraps=copy._decimal_product
    ) as spy:
        assert copy.exact_coefficients(model, 1100).coeffs == want
    assert spy.call_count == 0


def test_decimal_kernel_standard_matches_pentagonal():
    kl = _k_lambda(make_preset("standard"), 2100)
    with mock.patch.object(
        exact, "_decimal_product", wraps=exact._decimal_product
    ) as spy:
        got = exact._recurrence_int(kl, 2100)
    assert spy.call_count >= 3
    assert got == list(pentagonal_oracle(2100).coeffs)


@pytest.mark.parametrize("j", [2, 40])
def test_integral_k_lambda_with_rational_coeffs_names_n(j):
    # b_j = 1/j keeps every k*Lambda_k integral, but
    # f = P(z) (1 - z^j)^(1 - 1/j) has c_j = p(j) - 1 + 1/j, so the int
    # recurrence first fails at n = j; the model itself counts in Fractions
    N = 100
    weights = [1] * N
    weights[j - 1] = Fraction(1, j)
    model = custom_model(weights)
    kl = _k_lambda(model, N)
    with pytest.raises(InexactDivisionError, match=rf"\bn={j}\b"):
        exact._recurrence_int(kl, N)
    assert naive_recurrence(kl, N) is None
    t = 1 - Fraction(1, j)
    binom = [Fraction(1)]
    for m in range(1, N // j + 1):
        binom.append(binom[-1] * (m - 1 - t) / m)
    p = pentagonal_oracle(N)
    want = [
        sum(binom[m] * p[n - j * m] for m in range(n // j + 1)) for n in range(N + 1)
    ]
    series = exact_coefficients(model, N)
    assert list(series.coeffs) == want
    assert series[j] == p[j] - 1 + Fraction(1, j)


def test_wrong_block_product_raises(monkeypatch):
    # a KS2 that adds the negative part of k*Lambda_k where it should
    # subtract it (into the first accumulator it is given, the positive
    # part's), or that adds each product twice, makes some division inexact
    # on a selection table (k*Lambda_k < 0 at every even k); the integer
    # path must fail, not hand the model to the Fraction loop
    ks2 = exact._ks2_product
    model = custom_model([4 if j % 2 == 0 else 1 for j in range(300)], base=SELECTION)
    first = []

    def ks2_one_accumulator(x, y, acc, at):
        first.append(acc)
        ks2(x, y, first[0], at)

    def ks2_twice(x, y, acc, at):
        ks2(x, y, acc, at)
        ks2(x, y, acc, at)

    for wrong, n in ((ks2_one_accumulator, 18), (ks2_twice, 37)):
        monkeypatch.setattr(exact, "_ks2_product", wrong)
        with (
            mock.patch.object(exact, "_recurrence_frac") as frac,
            pytest.raises(InexactDivisionError, match=rf"\bn={n} .*N=300"),
        ):
            exact_coefficients(model, 300)
        assert frac.call_count == 0


@pytest.mark.parametrize(
    "model, N, want",
    [
        # b_2 = 1/2: f = (1 - z)^(-1) (1 - z^2)^(-1/2), k*Lambda_k integral
        (custom_model([1, Fraction(1, 2)]), 2, [1, 1, Fraction(3, 2)]),
        (
            ModelSpec("sets", EXPONENTIAL, lambda j: Fraction(1)),
            3,
            [1, 1, Fraction(3, 2), Fraction(13, 6)],
        ),
    ],
    ids=("rational-weights", "exponential"),
)
def test_rational_models_skip_the_int_path(model, N, want):
    with mock.patch.object(
        exact, "_recurrence_int", wraps=exact._recurrence_int
    ) as spy:
        assert list(exact_coefficients(model, N).coeffs) == want
    assert spy.call_count == 0


def test_roots_600_matches_product_dp():
    # c_600 is wider than two 128-bit limb planes
    model = make_preset("roots")
    rec = exact_coefficients(model, 600)
    assert rec[600].bit_length() > 256
    assert rec.coeffs == product_dp(model, 600).coeffs


def test_product_dp_requires_integer_multiset():
    with pytest.raises(UnsupportedModelError):
        product_dp(custom_model([Fraction(1, 2)]), 1)
    sel = ModelSpec("distinct", SELECTION, lambda j: Fraction(1))
    with pytest.raises(UnsupportedModelError):
        product_dp(sel, 5)


def test_product_dp_reads_the_whole_weight_table_first():
    # a fault anywhere in b_1..b_N raises before the integer check, so a
    # short fractional table names its missing entry
    with pytest.raises(UndefinedWeightError, match=r"\bj=4\b"):
        product_dp(custom_model([1, Fraction(1, 2), 3]), 10)
    with pytest.raises(UnsupportedModelError, match=r"\bb_2 = 1/2"):
        product_dp(custom_model([1, Fraction(1, 2), 3]), 3)


def test_n_zero_and_negative():
    assert exact_coefficients(make_preset("standard"), 0).coeffs == (1,)
    with pytest.raises(InvalidParametersError):
        exact_coefficients(make_preset("standard"), -1)
    with pytest.raises(InvalidParametersError):
        pentagonal_oracle(-1)
    with pytest.raises(InvalidParametersError):
        product_dp(make_preset("standard"), -1)
    std = make_preset("standard")  # and N an int, where True read as 1
    for N in (2.5, 5.0, "5", True):
        for count in (lambda: exact_coefficients(std, N), lambda: product_dp(std, N),
                      lambda: pentagonal_oracle(N)):
            with pytest.raises(InvalidParametersError, match="need an int N >= 0"):
                count()
    # past sys.maxsize no list holds the series; its repr may pass the str limit
    for N in (10**400, -10**5000):
        for count in (lambda: exact_coefficients(std, N), lambda: product_dp(std, N),
                      lambda: pentagonal_oracle(N)):
            with pytest.raises(InvalidParametersError, match="got an int of .* bits$"):
                count()

