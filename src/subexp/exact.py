"""Exact computation of the coefficients c_0..c_N.

Primary algorithm: the log-derivative recurrence

    n c_n = sum_{k=1}^n (k Lambda_k) c_{n-k},   c_0 = 1,

which serves every base function uniformly through the Lambda_k.  When
f has integer coefficients (multiset or selection base and integer b_j,
the models for which lambda_coeffs gives int k*Lambda_k) it runs in int
arithmetic as a divide-and-conquer online convolution; otherwise it runs
term by term in Fractions.  Each block product is one
Kronecker substitution, with slots wide enough that no coefficient
carries: short blocks as ints in binary limb planes by two-point
substitution (at +2^s and -2^s, Harvey's KS2) under CPython's Karatsuba,
long ones as Decimals at 10^S by libmpdec's number-theoretic transform.
Blocks [l, r) of at most max(32, bits of c_{l-1} // 2) terms are direct
sums: there dot products of wide c_i and narrower k*Lambda_k are faster.

Two independent verifiers back it: the classical pentagonal-number
recurrence (ordinary partitions only) and a direct truncated-product
evaluation (integer-weight multiset models).  Redundancy is the test
strategy for exact counting; the three share no counting code.
"""

from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul

from .errors import InexactDivisionError, UnsupportedModelError
from .model import MULTISET, ModelSpec, lambda_coeffs
from .precision import int_arg

# blocks [l, r) with r - l <= max(_LEAF, bits of c[l-1] // _BITS_PER_LEAF_TERM)
# run the direct sum.  Its time over one split's (two direct halves and a block
# product), median of 15 interleaved pairs on roots and standard at N = 5000
# (2-core x86-64 VM, Python 3.11): 0.56-0.72x at length 32 and 1.0-1.2x at
# 128 for c[l-1] of 105-234 bits, 0.49-0.54x at 64 and 0.94-1.0x at 384 for
# 679-929 bits; the two cost the same at length 0.47-0.67 times the bits
_LEAF = 32
_BITS_PER_LEAF_TERM = 2
# wide coefficients are cut into limb planes of this many bytes, so a
# narrow operand is not padded to the wide one's slot width
_LIMB_BYTES = 16
# block products at least this long go to _decimal_product, shorter ones to
# KS2.  Crossover, min of 15 runs on roots and standard at N = 5008 (2-core
# x86-64 VM, Python 3.11, libmpdec 2.5.1): the decimal kernel takes 1.0-1.6x
# KS2's time at length 512-1024, 0.85-1.35x at 1024-1536, 0.65-0.9x at 2000+
_DECIMAL_MIN_LEN = 1024
# digits per decimal product, which bounds libmpdec's transform scratch
_DIGIT_CAP = 500_000
try:  # libmpdec; the pure-Python decimal module goes through str(int)
    from _decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
    from _decimal import Inexact, Rounded
    _CTX = Context(MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])
except ImportError:
    _CTX = None


@dataclass(frozen=True)
class ExactSeries:
    """Coefficients c_0..c_N: ints exactly when f has integer coefficients."""

    coeffs: tuple

    def __getitem__(self, n: int):
        return self.coeffs[n]

    def __len__(self) -> int:
        return len(self.coeffs)


def _recurrence_int(k_lambda: list, N: int) -> list:
    # int k*Lambda_k; an inexact division, which for integer-coefficient f
    # means a wrong block product, raises InexactDivisionError.  Every c_n is
    # >= 0; k*Lambda_k, < 0 only on the selection base, is split by sign once,
    # each part paired with its own accumulator: acc for + and neg for -
    a = [0, *k_lambda]
    acc, neg = [0] * (N + 1), [0] * (N + 1)
    pairs = [(a, acc)]
    if min(a) < 0:
        pairs = [([max(v, 0) for v in a], acc), ([max(-v, 0) for v in a], neg)]
    c = [1] + [0] * N
    _solve(a, pairs, c, acc, neg, 0, N + 1)
    return c


def _solve(a: list, pairs: list, c: list, acc: list, neg: list, l: int, r: int):
    # Online convolution over [l, r).  On entry acc[n] - neg[n] holds
    # sum_{i<l} c_i a_{n-i} for every n in [l, r).  Module-level rather
    # than a closure, so no reference cycle keeps acc alive after return.
    # At l = 0, c[l - 1] is c[N], still 0
    if r - l <= max(_LEAF, c[l - 1].bit_length() // _BITS_PER_LEAF_TERM):
        for n in range(max(l, 1), r):
            total = acc[n] - neg[n] + sum(map(mul, c[l:n], a[n - l : 0 : -1]))
            acc[n] = neg[n] = 0
            q, rem = divmod(total, n)
            if rem:
                raise InexactDivisionError(f"inexact division at n={n}")
            c[n] = q
        return
    m = (l + r) // 2
    _solve(a, pairs, c, acc, neg, l, m)
    kernel = _decimal_product if _CTX and r - l >= _DECIMAL_MIN_LEN else _ks2_product
    for y, into in pairs:
        kernel(c[l:m], y[: r - l], into, l)
    _solve(a, pairs, c, acc, neg, m, r)


def _ks2_product(x: list, y: list, acc: list, at: int):
    """Add coefficient k of x*y to acc[at + k] for k in len(x)..len(y)-1.

    The contract: x, y >= 0 and len(x) < len(y).  That is a block's middle
    product in _solve: x = c[l:m] and y one sign part of k*Lambda_k, each
    part with its own accumulator.  Two-point
    Kronecker substitution (KS2; Harvey 2009, "Faster polynomial
    multiplication via multipoint Kronecker substitution"): for each pair
    of limb planes, X(z) = Xe(z^2) + z Xo(z^2) has its even- and
    odd-indexed chunks packed into ints at z^2 = 2^(8*slot), so wide that no
    coefficient of P = X Y reaches 2^(8*slot).  P(+-2^s) = X(+-2^s) Y(+-2^s),
    s = 4*slot bits, are two half-length products; (P(2^s) + P(-2^s))/2 and
    (P(2^s) - P(-2^s))/2^(s+1) hold P's even- and odd-indexed coefficients
    in their slots, which are read back, shifted to the planes' place and summed.
    """
    lo, hi = len(x), len(y)
    y_planes = _planes(y)
    for x_off, x_start, x_width, x_chunks in _planes(x):
        for y_off, y_start, y_width, y_chunks in y_planes:
            start = x_start + y_start
            if start >= hi:
                continue
            # y entries past hi - 1 - x_start only reach coefficients >= hi
            y_chunks = y_chunks[: hi - start]
            count = min(len(x_chunks), len(y_chunks))
            slot = x_width + y_width + (count.bit_length() + 7) // 8
            s = 4 * slot
            x_even = _pack(x_chunks[::2], x_width, slot)
            x_odd = _pack(x_chunks[1::2], x_width, slot) << s
            y_even = _pack(y_chunks[::2], y_width, slot)
            y_odd = _pack(y_chunks[1::2], y_width, slot) << s
            z_plus = (x_even + x_odd) * (y_even + y_odd)
            z_minus = (x_even - x_odd) * (y_even - y_odd)
            shift = 8 * (x_off + y_off)
            first = max(lo, start)
            # P's coefficient start + 2j + parity sits in slot j of half
            for parity, half in (
                (0, (z_plus + z_minus) >> 1),
                (1, (z_plus - z_minus) >> (s + 1)),
            ):
                buf = half.to_bytes((half.bit_length() + 7) // 8, "little")
                for k in range(first + (first - start - parity) % 2, hi, 2):
                    i = (k - start) // 2 * slot
                    acc[at + k] += int.from_bytes(buf[i : i + slot], "little") << shift


def _pack(chunks: list, width: int, slot: int) -> int:
    # one int holding chunk i (width bytes) in bytes i*slot.. of its
    # little-endian form, the rest of each slot zero
    return int.from_bytes(bytes(slot - width).join(chunks), "little")


def _planes(x: list) -> list:
    """Limb planes of the nonnegative int list x, as packing input.

    x = sum of 2^(8*offset) * plane over the returned tuples
    (offset, start, width, chunks): the plane's entry for index
    start + i is the little-endian chunk chunks[i], width bytes long.
    An all-zero list gives no planes, and entries below start, which
    are zero in the plane, are dropped.
    """
    bits = [v.bit_length() for v in x]
    total = (max(bits) + 7) // 8
    raw = [v.to_bytes(total, "little") for v in x]
    planes = []
    for off in range(0, total, _LIMB_BYTES):
        start = next(i for i, b in enumerate(bits) if b > 8 * off)
        width = min(_LIMB_BYTES, total - off)
        planes.append((off, start, width, [b[off : off + width] for b in raw[start:]]))
    return planes


def _decimal_product(x: list, y: list, acc: list, at: int):
    """Like _ks2_product (same contract), by Kronecker substitution at 10^S.

    libmpdec multiplies long Decimals by a number-theoretic transform in
    O(n log n).  S = w + widest y + digits of len(x), so no slot
    carries, and x (the c_n, in the recurrence) is cut into as few decimal
    planes of w digits as keep each product under _DIGIT_CAP digits, with
    w >= S - w.  A plane skips the low x entries with no digit in it, and
    the y entries that then reach only coefficients >= len(y).  Ints and
    digits meet only in Decimal or in int() on at most 640 digits
    (sys.int_info.str_digits_check_threshold), so no limit applies.
    """
    lo, hi = len(x), len(y)
    xs = [str(Decimal(v)) for v in x]
    ys = [str(Decimal(v)) for v in reversed(y)]
    x_width = max(map(len, xs))
    rest = max(map(len, ys)) + len(str(lo))
    planes = -(-x_width // max(rest, _DIGIT_CAP // (lo + hi) - rest))
    w = -(-x_width // planes)
    S = w + rest
    lengths = list(map(len, xs))
    xs = [v.zfill(planes * w) for v in xs]
    read = int if S <= 640 else (lambda v: int(Decimal(v)))
    for p in range(planes):
        # x entries below start have no digit in plane p
        start = next(i for i, n in enumerate(lengths) if n > w * p)
        i = (planes - 1 - p) * w
        x_dec = Decimal("".join(v[i : i + w].zfill(S) for v in reversed(xs[start:])))
        y_dec = Decimal("".join(v.zfill(S) for v in ys[start:]))
        z = str(_CTX.multiply(x_dec, y_dec)).zfill(S * (hi - start))
        # slots hi-1 down to lo of plane p, whose digits sit w*p places up
        z = z[len(z) - S * (hi - start) : len(z) - S * (lo - start)]
        scale = 10 ** (w * p)
        for k, j in enumerate(range(len(z) - S, -1, -S), at + lo):
            acc[k] += read(z[j : j + S]) * scale


def _recurrence_frac(k_lambda: list, N: int):
    c = [Fraction(0)] * (N + 1)
    c[0] = Fraction(1)
    for n in range(1, N + 1):
        total = Fraction(0)
        for k in range(1, n + 1):
            kl = k_lambda[k - 1]
            if kl:
                total += kl * c[n - k]
        c[n] = total / n
    return c


def exact_coefficients(model: ModelSpec, N: int) -> ExactSeries:
    """c_0..c_N by the log-derivative recurrence, exact.

    When f has integer coefficients the convolution is carried by
    O(log N) levels of big-number multiplies, each level costing about one
    product of two N-coefficient polynomials: blocks shorter than
    _DECIMAL_MIN_LEN take two half-length int multiplies per pair of limb
    planes (_ks2_product, under CPython's O(n^1.585) Karatsuba), longer ones
    O(n log n) Decimal multiplies (_decimal_product).  Blocks of h <=
    max(32, bits of c_{l-1} // 2) terms are O(h^2) direct products c_i *
    k*Lambda_k: 14% less time than 32-term leaves on roots at N = 5000
    (c_N of about 1080 bits), 26% on b_j = 2j^5 at N = 1600.  Every other
    model, told apart by its Fraction k*Lambda_k, takes a Fraction loop of
    O(N^2) operations.  On the int path an inexact division means a wrong
    block product, and raises InexactDivisionError naming n, the model kind
    and N.
    """
    int_arg("N", N, 0)
    if N == 0:
        return ExactSeries((1,))
    kl = lambda_coeffs(model, N).k_values
    if type(kl[0]) is not int:
        return ExactSeries(tuple(_recurrence_frac(kl, N)))
    try:
        return ExactSeries(tuple(_recurrence_int(kl, N)))
    except InexactDivisionError as exc:
        msg = f"{exc} counting model '{model.kind}' to N={N}"
        raise InexactDivisionError(msg) from None


def pentagonal_oracle(N: int) -> ExactSeries:
    """Ordinary partition numbers p(0..N) via Euler's recurrence.

    p(n) = sum_{k>=1} (-1)^(k+1) [p(n - k(3k-1)/2) + p(n - k(3k+1)/2)].
    The generalized pentagonal offsets g <= N are built once, in
    ascending order, and split by the sign of their k; each p(n) is then
    two plain sums of p(n - g) over the offsets g <= n.  Independent of
    the Lambda machinery; standard model only.
    """
    int_arg("N", N, 0)
    offsets = []  # (g, k odd), ascending in g
    k = 1
    while k * (3 * k - 1) // 2 <= N:
        pair = (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2)
        offsets += [(g, k % 2) for g in pair if g <= N]
        k += 1
    p = [1]
    get = p.__getitem__
    plus, minus = [], []  # -g for the offsets g <= n, so p[-g] = p(n - g)
    for (g, odd), (end, _) in zip(offsets, offsets[1:] + [(N + 1, 0)]):
        (plus if odd else minus).append(-g)
        for n in range(g, end):  # len(p) == n
            p.append(sum(map(get, plus)) - sum(map(get, minus)))
    return ExactSeries(tuple(p))


def product_dp(model: ModelSpec, N: int) -> ExactSeries:
    """c_0..c_N by direct truncated-product evaluation.

    Multiplies out prod_j (1 - z^j)^(-b_j) factor by factor, reading
    b_1..b_N from model.weights.  A factor with b_j <= N // j is applied
    as b_j prefix-sum passes along stride j (one per 1/(1-z^j)); a heavier
    one as N // j shifted multiply-adds c[m*j:] += C(b_j+m-1, m) * old,
    the binomial weights of (1-z^j)^(-b_j) times the coefficients from
    before the factor.

    The factors go from j = N down to 1.  Below the smallest part `low`
    with b_low > 0 applied so far only c_0 = 1 is nonzero, so a pass
    touches just the multiples of j there, and the block additions and
    multiply-adds start at low + j and m*j + low.  That halves the
    big-int additions of ascending order (2.09 against 4.17 million on
    congruent(3,1) at N = 5000).  The factors and the exact ints are
    those of the plain product, and nothing here reads a Lambda_k or
    shares counting code with the recurrence.  Only integer-weight multiset
    models qualify; exists purely as an independent verifier for
    exact_coefficients.
    """
    int_arg("N", N, 0)
    if model.base is not MULTISET:
        raise UnsupportedModelError(
            f"product evaluation needs the multiset base; model has {model.base.value}"
        )
    b = model.weights(N)
    if b and type(b[0]) is not int:
        j, bj = next((j, x) for j, x in enumerate(b, 1) if x.denominator != 1)
        raise UnsupportedModelError(
            f"product evaluation needs integer weights; b_{j} = {bj}"
        )
    c = [1] + [0] * N
    low = N + 1  # the smallest part applied so far; c[1:low] is zero
    for j in range(N, 0, -1):
        bj = b[j - 1]
        if bj > N // j:
            before = c[: N + 1 - j]
            w = 1
            for m in range(1, N // j + 1):
                w = w * (bj + m - 1) // m
                s = m * j
                c[s] += w  # before[0] = 1, before[1:low] = 0
                t = s + low
                c[t:] = map(add, c[t:], [w * v for v in before[low : N + 1 - s]])
        else:
            for _ in range(bj):
                # prefix sums along stride j.  Below low + j only the
                # multiples of j change; from there, one block of j entries
                # at a time, each adding the block before it, already summed
                for i in range(j, min(low + j, N + 1), j):
                    c[i] += c[i - j]
                for i in range(low + j, N + 1, j):
                    c[i : i + j] = map(add, c[i : i + j], c[i - j : i])
        if bj:
            low = j
    return ExactSeries(tuple(c))
