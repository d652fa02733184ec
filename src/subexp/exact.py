"""Exact computation of the coefficients c_0..c_N.

Primary algorithm: the log-derivative recurrence

    n c_n = sum_{k=1}^n (k Lambda_k) c_{n-k},   c_0 = 1,

which serves every base function uniformly through the Lambda_k.  When
every k*Lambda_k is an integer (which covers the integer-weight multiset
presets) it runs in int arithmetic as a divide-and-conquer online
convolution whose block products are single big-int multiplies by
Kronecker substitution; otherwise it runs term by term in Fractions.

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

    model_kind: str
    N: int
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

    Kronecker substitution: each limb plane of x and of y is packed into
    one int with slots wide enough that no coefficient of the plane
    product carries, each pair of planes is multiplied once, and the
    slots are read back, shifted to the planes' place and summed.
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
            z = _pack(x_chunks, x_width, slot) * _pack(y_chunks, y_width, slot)
            buf = z.to_bytes((z.bit_length() + 7) // 8, "little")
            shift = 8 * (x_off + y_off)
            negative = x_sign != y_sign
            for k in range(max(lo, start), hi):
                i = (k - start) * slot
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
    product of two N-coefficient polynomials.  Rational Lambda_k, or an
    integer table whose c_n are not all integers, fall back to a
    Fraction loop of O(N^2) operations.  Requires the model's Lambda_k
    to be rational (true for all presets); irrational models have no
    exact coefficient series.
    """
    if N < 0:
        raise InvalidParametersError(f"need N >= 0; got N={N}")
    if N == 0:
        return ExactSeries(model.kind, 0, (1,))
    lam = lambda_coeffs(model, N)
    kl = [lam.k_lambda(k) for k in range(1, N + 1)]
    if all(x.denominator == 1 for x in kl):
        kl = [int(x) for x in kl]
        c = _recurrence_int(kl, N)
        if c is not None:
            return ExactSeries(model.kind, N, tuple(c))
    c = _recurrence_frac([Fraction(x) for x in kl], N)
    if all(x.denominator == 1 for x in c):
        c = [int(x) for x in c]
    return ExactSeries(model.kind, N, tuple(c))


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
    return ExactSeries("standard", N, tuple(p))


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
    return ExactSeries(model.kind, N, tuple(c))
