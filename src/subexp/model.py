"""Multiplicative generating-function models.

A model is f(z) = prod_{j>=1} S(a_j z^j)^{b_j} with base function S,
scale sequence a_j in (0,1] and weight sequence b_j >= 0.  Everything
downstream consumes the model only through the log-coefficients

    log f(z) = sum_k Lambda_k z^k,   Lambda_k = sum_{j*m=k} b_j g_m a_j^m,

where g_m are the Taylor coefficients of log S.  Weight and scale
sequences are closed-form rules (callables by index), not arrays, so a
single ModelSpec serves any truncation order.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import InvalidParametersError, UndefinedWeightError


@dataclass(frozen=True)
class BaseFunction:
    """Base function S given by the Taylor coefficients of log S.

    log S(w) = sum_{m>=1} g_m w^m; S(0)=1 is encoded by the absence of
    a constant term.  g_m must be returned exact (Fraction or int) for
    the exact-counting path to stay rational.
    """

    name: str
    log_taylor: Callable[[int], Fraction]


def _multiset_g(m: int) -> Fraction:
    return Fraction(1, m)


def _selection_g(m: int) -> Fraction:
    return Fraction(1, m) if m % 2 == 1 else Fraction(-1, m)


def _exponential_g(m: int) -> Fraction:
    return Fraction(1) if m == 1 else Fraction(0)


# log(1/(1-w)) = sum w^m/m; log(1+w) = sum (-1)^(m+1) w^m/m; log(e^w) = w
MULTISET = BaseFunction("multiset", _multiset_g)
SELECTION = BaseFunction("selection", _selection_g)
EXPONENTIAL = BaseFunction("exponential", _exponential_g)


@dataclass(frozen=True)
class ModelSpec:
    """Immutable description of one multiplicative model."""

    kind: str
    base: BaseFunction
    weight: Callable[[int], Fraction]  # b_j, nonnegative rational
    scale: Optional[Callable[[int], Fraction]] = None  # a_j, None means a_j = 1
    params: tuple = ()

    def b(self, j: int) -> Fraction:
        if j < 1:
            raise UndefinedWeightError(f"weights are indexed from 1; got j={j}")
        try:
            bj = self.weight(j)
        except Exception as exc:
            raise UndefinedWeightError(
                f"weight rule of model '{self.kind}' failed at j={j}: {exc}"
            ) from exc
        if bj is None:
            raise UndefinedWeightError(
                f"weight rule of model '{self.kind}' undefined at j={j}"
            )
        bj = Fraction(bj)
        if bj < 0:
            raise InvalidParametersError(f"b_{j} = {bj} < 0")
        return bj

    def a(self, j: int) -> Fraction:
        if self.scale is None:
            return Fraction(1)
        aj = Fraction(self.scale(j))
        if not (0 < aj <= 1):
            raise InvalidParametersError(f"a_{j} = {aj} outside (0, 1]")
        return aj

    @property
    def unit_scale(self) -> bool:
        return self.scale is None


@dataclass(frozen=True)
class QuasiPolynomial:
    """Weight rule: b_j sums c*j^i over the terms (r, i, c) with j = r mod a.

    Residues r lie in 1..a.  Callable as b_j, so it serves as a ModelSpec
    weight; derive_spectrum reads the spectrum off its terms.
    """

    a: int
    terms: tuple  # (r, i, c)

    def __post_init__(self):
        if self.a < 1 or not all(0 < r <= self.a and i >= 0 for r, i, _ in self.terms):
            raise InvalidParametersError(f"need a >= 1, 0 < r <= a, i >= 0; got {self}")

    def __call__(self, j: int) -> Fraction:
        return Fraction(sum(c * j**i for r, i, c in self.terms if not (j - r) % self.a))


_PRESET_TERMS = {"standard": ((1, 0, 1),), "roots": ((1, 0, 1), (1, 1, 2))}


def make_preset(kind: str, a: int = None, b: int = None) -> ModelSpec:
    """Build one of the three preset models.

    standard:        b_j = 1
    roots:           b_j = 2j+1   (part j repeated (j+1)^2 - j^2 times)
    congruent(a,b):  b_j = 1 iff j = b (mod a), else 0; requires gcd(a,b)=1

    All presets use the multiset base, a_j = 1 and a QuasiPolynomial weight.
    """
    if kind in _PRESET_TERMS:
        return ModelSpec(kind, MULTISET, QuasiPolynomial(1, _PRESET_TERMS[kind]))
    if kind != "congruent":
        raise InvalidParametersError(f"unknown preset kind: {kind!r}")
    if a is None or b is None:
        raise InvalidParametersError("congruent preset needs parameters a and b")
    if a < 1 or b < 1:
        raise InvalidParametersError(f"need positive a, b; got a={a}, b={b}")
    if math.gcd(a, b) != 1:
        raise InvalidParametersError(
            f"congruent preset requires gcd(a,b)=1; got gcd({a},{b})={math.gcd(a, b)}"
        )
    rule = QuasiPolynomial(a, (((b - 1) % a + 1, 0, 1),))
    return ModelSpec("congruent", MULTISET, rule, params=(a, b))


def custom_model(
    weights: Sequence, base: BaseFunction = MULTISET, kind: str = "custom"
) -> ModelSpec:
    """Model from an explicit weight table b_1..b_N (undefined beyond N)."""
    table = [Fraction(w) for w in weights]

    def rule(j: int, _t=tuple(table)) -> Fraction:
        if j > len(_t):
            raise UndefinedWeightError(
                f"weight table has {len(_t)} entries; b_{j} undefined"
            )
        return _t[j - 1]

    return ModelSpec(kind, base, rule)


@dataclass(frozen=True)
class LambdaSeries:
    """Log-coefficients Lambda_1..Lambda_N of a model, always exact.

    k_values[k-1] = k*Lambda_k, the division-free form the counting
    recurrence wants: a plain int for multiset models whose j*b_j are
    all integers, a Fraction otherwise.  values[k-1] = Lambda_k is
    derived from it.
    """

    k_values: tuple

    @property
    def values(self) -> tuple:
        return tuple(Fraction(kv, k) for k, kv in enumerate(self.k_values, start=1))

    def k_lambda(self, k: int):
        return self.k_values[k - 1]


def _sieve_k_lambda(model: ModelSpec, N: int) -> list:
    # multiset base, a_j = 1: k*Lambda_k = sum_{j | k} j*b_j, via a
    # divisor sieve in O(N log N) weight evaluations; int sums when
    # every j*b_j is integral, Fractions otherwise
    jb = [j * model.b(j) for j in range(1, N + 1)]
    if all(x.denominator == 1 for x in jb):
        jb = [int(x) for x in jb]
        acc = [0] * (N + 1)
    else:
        acc = [Fraction(0)] * (N + 1)
    for j, jbj in enumerate(jb, start=1):
        if jbj == 0:
            continue
        for k in range(j, N + 1, j):
            acc[k] += jbj
    return acc[1:]


def lambda_coeffs(model: ModelSpec, N: int) -> LambdaSeries:
    """Lambda_k = sum_{j*m=k} b_j g_m a_j^m for k = 1..N, exact rational."""
    if N < 1:
        raise InvalidParametersError(f"need N >= 1; got N={N}")
    if model.base is MULTISET and model.unit_scale:
        return LambdaSeries(tuple(_sieve_k_lambda(model, N)))
    vals = [Fraction(0)] * N
    for j in range(1, N + 1):
        bj = model.b(j)
        if bj == 0:
            continue
        aj = model.a(j)
        ajm = Fraction(1)
        for m in range(1, N // j + 1):
            ajm *= aj
            gm = Fraction(model.base.log_taylor(m))
            if gm:
                vals[j * m - 1] += bj * gm * ajm
    kvals = tuple(k * v for k, v in enumerate(vals, start=1))
    return LambdaSeries(kvals)


def llt_condition_report(model: ModelSpec, n_max: int, q_max: int) -> list:
    """Diagnostic for the local-limit-theorem weight condition.

    For each modulus q and each n on a geometric grid up to n_max,
    reports count(q, n) = sum_{k<=n, q does not divide k} b_k together
    with count/log^2 n.  The sufficient condition is asymptotic
    (count should dominate log^2 n), so this is a report, never a
    verdict.

    Returns a list of dicts with keys q, n, count, log_sq, ratio.
    """
    if n_max < 16:
        raise InvalidParametersError(f"need n_max >= 16; got {n_max}")
    if not (2 <= q_max <= 64):
        raise InvalidParametersError(f"need 2 <= q_max <= 64; got {q_max}")
    grid = []
    n = 16
    while n < n_max:
        grid.append(n)
        n *= 2
    grid.append(n_max)
    bvals = [model.b(k) for k in range(1, n_max + 1)]
    rows = []
    for q in range(2, q_max + 1):
        for n in grid:
            count = sum(bvals[k - 1] for k in range(1, n + 1) if k % q != 0)
            log_sq = math.log(n) ** 2
            rows.append(
                {
                    "q": q,
                    "n": n,
                    "count": count,
                    "log_sq": log_sq,
                    "ratio": float(count) / log_sq,
                }
            )
    return rows
