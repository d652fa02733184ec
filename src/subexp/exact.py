"""Exact computation of the coefficients c_0..c_N.

Primary algorithm: the log-derivative recurrence

    n c_n = sum_{k=1}^n (k Lambda_k) c_{n-k},   c_0 = 1,

which serves every base function uniformly through the Lambda_k.  When
every k*Lambda_k is an integer (which covers the integer-weight multiset
presets) it runs in int arithmetic as a divide-and-conquer online
convolution; otherwise it runs term by term in Fractions.  Each block
product of the convolution is cut into limb planes, and each pair of
planes costs two half-length big-int multiplies by two-point Kronecker
substitution (evaluation at +2^s and -2^s, Harvey's KS2).  A plane
product's coefficients are packed into slots of 8*slot bits, with slot
wide enough that every coefficient is below 2^(8*slot), so none carries
into its neighbour.

Two independent verifiers back it: the classical pentagonal-number
recurrence (ordinary partitions only) and a direct truncated-product
evaluation (integer-weight multiset models).  Redundancy is the test
strategy for exact counting; none of the three shares code.
"""

from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul

from .errors import InvalidParametersError, UnsupportedModelError
from .model import MULTISET, ModelSpec, lambda_coeffs

# blocks of the online convolution at most this long run the direct sum
_LEAF = 32
# wide coefficients are cut into limb planes of this many bytes, so a
# narrow operand is not padded to the wide one's slot width
_LIMB_BYTES = 16


@dataclass(frozen=True)
class ExactSeries:
    """Coefficients c_0..c_N, exact (ints, or Fractions when needed)."""

    coeffs: tuple

    def __getitem__(self, n: int):
        return self.coeffs[n]

    def __len__(self) -> int:
        return len(self.coeffs)


def _recurrence_int(k_lambda: list, N: int):
    # all k*Lambda_k integral; returns None at the first non-exact
    # division, which cannot happen for integer-coefficient f
    a = [0, *k_lambda]
    c = [1] + [0] * N
    acc = [0] * (N + 1)
    return c if _solve(a, c, acc, 0, N + 1) else None


def _solve(a: list, c: list, acc: list, l: int, r: int) -> bool:
    # Online convolution over [l, r).  On entry acc[n] holds
    # sum_{i<l} c_i a_{n-i} for every n in [l, r).  Module-level rather
    # than a closure, so no reference cycle keeps acc alive after return.
    if r - l <= _LEAF:
        for n in range(max(l, 1), r):
            total = acc[n] + sum(map(mul, c[l:n], a[n - l : 0 : -1]))
            acc[n] = 0
            q, rem = divmod(total, n)
            if rem:
                return False
            c[n] = q
        return True
    m = (l + r) // 2
    if not _solve(a, c, acc, l, m):
        return False
    for n, v in enumerate(_middle_product(c[l:m], a[: r - l], m - l, r - l), m):
        acc[n] += v
    return _solve(a, c, acc, m, r)


def _middle_product(x: list, y: list, lo: int, hi: int) -> list:
    """Coefficients lo..hi-1 of the product of int polynomials x and y.

    Two-point Kronecker substitution (KS2; Harvey 2009, "Faster
    polynomial multiplication via multipoint Kronecker substitution").
    For each pair of limb planes, X(z) = Xe(z^2) + z Xo(z^2) is split
    into its even- and odd-indexed chunks, each packed into one int at
    z^2 = 2^(8*slot), with slots wide enough that no coefficient of the
    plane product P = X Y reaches 2^(8*slot).  The two products
    P(2^s) = X(2^s) Y(2^s) and P(-2^s) = X(-2^s) Y(-2^s), s = 4*slot
    bits, are each half as long as the one product P(2^(8*slot)) of
    plain Kronecker substitution;
    Pe(2^(8*slot)) = (P(2^s) + P(-2^s)) / 2 and
    Po(2^(8*slot)) = (P(2^s) - P(-2^s)) / 2^(s+1) hold the even- and
    odd-indexed coefficients of P in their slots, which are read back,
    shifted to the planes' place and summed.
    """
    out = [0] * (hi - lo)
    y_planes = _planes(y)
    for x_sign, x_off, x_start, x_width, x_chunks in _planes(x):
        for y_sign, y_off, y_start, y_width, y_chunks in y_planes:
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
            negative = x_sign != y_sign
            first = max(lo, start)
            # P's coefficient start + 2j + parity sits in slot j of half
            for parity, half in (
                (0, (z_plus + z_minus) >> 1),
                (1, (z_plus - z_minus) >> (s + 1)),
            ):
                buf = half.to_bytes((half.bit_length() + 7) // 8, "little")
                for k in range(first + (first - start - parity) % 2, hi, 2):
                    i = (k - start) // 2 * slot
                    v = int.from_bytes(buf[i : i + slot], "little") << shift
                    out[k - lo] += -v if negative else v
    return out


def _pack(chunks: list, width: int, slot: int) -> int:
    # one int holding chunk i (width bytes) in bytes i*slot.. of its
    # little-endian form, the rest of each slot zero
    return int.from_bytes(bytes(slot - width).join(chunks), "little")


def _planes(x: list) -> list:
    """Nonnegative limb planes of the int list x, as packing input.

    x = sum of sign * 2^(8*offset) * plane over the returned tuples
    (sign, offset, start, width, chunks): the plane's entry for index
    start + i is the little-endian chunk chunks[i], width bytes long.
    Signed lists are split into positive and negative parts; an all-zero
    part gives no planes, and entries below start, which are zero in the
    plane, are dropped.
    """
    if min(x) >= 0:
        parts = [(1, x)]
    else:
        parts = [
            (1, [v if v > 0 else 0 for v in x]),
            (-1, [-v if v < 0 else 0 for v in x]),
        ]
    planes = []
    for sign, part in parts:
        bits = [v.bit_length() for v in part]
        total = (max(bits) + 7) // 8
        raw = [v.to_bytes(total, "little") for v in part]
        for off in range(0, total, _LIMB_BYTES):
            start = next(i for i, b in enumerate(bits) if b > 8 * off)
            width = min(_LIMB_BYTES, total - off)
            chunks = [b[off : off + width] for b in raw[start:]]
            planes.append((sign, off, start, width, chunks))
    return planes


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

    With integer k*Lambda_k and integer c_n the convolution is carried by
    O(log N) levels of big-int multiplies, each level costing about one
    product of two N-coefficient polynomials.  Each block product takes
    two multiplies of half its Kronecker length per pair of limb planes
    (see _middle_product), about 0.67 of one full-length multiply under
    CPython's Karatsuba.  Rational Lambda_k, or an
    integer table whose c_n are not all integers, fall back to a
    Fraction loop of O(N^2) operations.
    """
    if N < 0:
        raise InvalidParametersError(f"need N >= 0; got N={N}")
    if N == 0:
        return ExactSeries((1,))
    kl = lambda_coeffs(model, N).k_values
    if all(x.denominator == 1 for x in kl):
        kl = [int(x) for x in kl]
        c = _recurrence_int(kl, N)
        if c is not None:
            return ExactSeries(tuple(c))
    c = _recurrence_frac([Fraction(x) for x in kl], N)
    if all(x.denominator == 1 for x in c):
        c = [int(x) for x in c]
    return ExactSeries(tuple(c))


def pentagonal_oracle(N: int) -> ExactSeries:
    """Ordinary partition numbers p(0..N) via Euler's recurrence.

    p(n) = sum_{k>=1} (-1)^(k+1) [p(n - k(3k-1)/2) + p(n - k(3k+1)/2)].
    Independent of the Lambda machinery; standard model only.
    """
    if N < 0:
        raise InvalidParametersError(f"need N >= 0; got N={N}")
    p = [0] * (N + 1)
    p[0] = 1
    for n in range(1, N + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 == 1 else -1
            total += sign * p[n - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return ExactSeries(tuple(p))


def product_dp(model: ModelSpec, N: int) -> ExactSeries:
    """c_0..c_N by direct truncated-product evaluation.

    Multiplies out prod_j (1 - z^j)^(-b_j) factor by factor, each one a
    stride-j pass over the coefficient array.  A factor with
    b_j <= N // j is applied as b_j prefix-sum passes (one per
    1/(1-z^j)); a heavier one as a single descending pass with the
    binomial weights C(b_j+m-1, m) of (1-z^j)^(-b_j).  Only
    integer-weight multiset models with a_j = 1 qualify; exists purely
    as an independent verifier for exact_coefficients.
    """
    if N < 0:
        raise InvalidParametersError(f"need N >= 0; got N={N}")
    if model.base is not MULTISET:
        raise UnsupportedModelError(
            f"product evaluation needs the multiset base; model has {model.base.name}"
        )
    if not model.unit_scale:
        raise UnsupportedModelError("product evaluation needs a_j = 1")
    c = [0] * (N + 1)
    c[0] = 1
    for j in range(1, N + 1):
        bj = model.b(j)
        if bj.denominator != 1:
            raise UnsupportedModelError(
                f"product evaluation needs integer weights; b_{j} = {bj}"
            )
        bj = int(bj)
        if bj > N // j:
            weights = [1]
            for m in range(1, N // j + 1):
                weights.append(weights[-1] * (bj + m - 1) // m)
            # descending, so c[i::-j] still holds the coefficients from
            # before this factor
            for i in range(N, j - 1, -1):
                c[i] = sum(map(mul, weights, c[i::-j]))
        else:
            for _ in range(bj):
                # prefix sums along stride j, one block of j entries at a
                # time; each block adds the block before it, already summed
                for i in range(j, N + 1, j):
                    c[i : i + j] = map(add, c[i : i + j], c[i - j : i])
    return ExactSeries(tuple(c))
