"""Multiplicative generating-function models.

A model is f(z) = prod_{j>=1} S(z^j)^{b_j} with base function S and
weight sequence b_j >= 0.  Everything downstream consumes the model only
through the log-coefficients

    log f(z) = sum_k Lambda_k z^k,   Lambda_k = sum_{j*m=k} b_j g_m,

where g_m are the Taylor coefficients of log S.  Weight sequences are
closed-form rules (callables by index), not arrays, so a single
ModelSpec serves any truncation order.  ModelSpec.weights(N) gives the
table b_1..b_N that the counting code reads.
"""

import math
from dataclasses import dataclass
from enum import Enum, EnumMeta
from fractions import Fraction
from itertools import accumulate
from operator import add
from typing import Callable, Sequence

from .errors import InvalidParametersError, UndefinedWeightError
from .precision import as_rational, int_arg, shown


class _Lookup(EnumMeta):
    def __call__(cls, value, *args, **kwargs):  # refuse before Enum takes repr(value)
        if not (args or kwargs or isinstance(value, cls) or value in [m.value for m in cls]):
            raise InvalidParametersError(f"not a base function value: {shown(value)}")
        return super().__call__(value, *args, **kwargs)


class BaseFunction(Enum, metaclass=_Lookup):
    """Base function S, fixed by the Taylor coefficients g_m of log S.

    multiset:    S(w) = 1/(1-w),  g_m = 1/m
    selection:   S(w) = 1+w,      g_m = (-1)^(m+1)/m
    exponential: S(w) = e^w,      g_m = 1 if m = 1, else 0
    """

    MULTISET = "multiset"
    SELECTION = "selection"
    EXPONENTIAL = "exponential"


MULTISET, SELECTION, EXPONENTIAL = BaseFunction


@dataclass(frozen=True)
class ModelSpec:
    """Immutable description of one multiplicative model."""

    kind: str
    base: BaseFunction
    weight: Callable[[int], Fraction]  # b_j, nonnegative rational
    params: tuple = ()

    def __post_init__(self):
        if not isinstance(self.kind, str):
            raise InvalidParametersError(f"model kind not a str: {shown(self.kind)}")
        if not isinstance(self.base, BaseFunction):
            raise InvalidParametersError(f"not a BaseFunction: {shown(self.base)}")
        if not isinstance(self.params, tuple):
            raise InvalidParametersError(f"model params not a tuple: {shown(self.params)}")

    def b(self, j: int) -> Fraction:
        int_arg("j", j, 1)  # weights are indexed from 1
        try:
            bj = self.weight(j)
        except Exception as exc:
            raise UndefinedWeightError(
                f"weight rule of model {shown(self.kind)} failed at j={j}: {exc}"
            ) from exc
        if bj is None:
            raise UndefinedWeightError(
                f"weight rule of model {shown(self.kind)} undefined at j={j}"
            )
        v = as_rational(bj)
        if v is None:
            raise InvalidParametersError(f"b_{j} = {shown(bj)} is not a rational number")
        if v < 0:
            raise InvalidParametersError(f"b_{j} = {shown(bj)} < 0")
        return v

    def weights(self, N: int) -> list:
        """b_1..b_N: all ints when every b_j is whole, else all Fractions.

        A QuasiPolynomial fills the list in bulk, and holds no negative b_j;
        any other rule, a custom_model table included, is read through b once
        per j, so the error is the one b raises at the first j where b fails.
        """
        int_arg("N", N, 0)
        vals = (self.weight.table(N) if isinstance(self.weight, QuasiPolynomial)
                else [self.b(j) for j in range(1, N + 1)])
        if any(type(v) is not int for v in vals):
            vals = [Fraction(v) for v in vals]
            if all(v.denominator == 1 for v in vals):
                vals = [v.numerator for v in vals]
        return vals


@dataclass(frozen=True)
class QuasiPolynomial:
    """Weight rule: b_j sums c*j^i over the terms (r, i, c) with j = r mod a.

    a, r and i are ints with residues r in 1..a and degrees i >= 0; each c
    is kept exact as as_rational reads it, and a rule with a negative b_j is
    refused, named by its first j.  Callable as b_j, so it serves as a
    ModelSpec weight; derive_spectrum reads the spectrum off its terms.
    """

    a: int
    terms: tuple  # (r, i, c)

    def __post_init__(self):
        # type(x) is int rules out bools; each c is kept exact, so that a
        # whole float 2.0 counts as 2 and c*j^i is never a float
        try:
            terms = tuple((r, i, as_rational(c)) for r, i, c in self.terms)
        except (TypeError, ValueError):  # terms not a sequence of triples
            terms = None
        if not (type(self.a) is int and self.a >= 1 and terms is not None and all(
                type(r) is int and type(i) is int and 0 < r <= self.a and i >= 0
                and c is not None for r, i, c in terms)):
            raise InvalidParametersError("need int a >= 1, int 0 < r <= a, int i >= 0, "
                                         f"rational c; got {shown(self)}")
        object.__setattr__(self, "terms", terms)
        if any(c < 0 for _, _, c in terms):  # no preset has a negative c
            degree = max(i for _, i, _ in terms)
            j = min(filter(None, (_first_negative(self.a, terms, r, degree)
                                  for r in {r for r, _, _ in terms})), default=None)
            if j is not None:
                raise InvalidParametersError(f"b_j = {shown(self(j))} < 0 at j = {shown(j)}")

    def __call__(self, j: int) -> Fraction:
        return sum(c * j**i for r, i, c in self.terms if not (j - r) % self.a)

    def table(self, N: int) -> list:
        # b_1..b_N before Fraction(), each summed in __call__'s order
        t = [0] * N
        for r, i, c in self.terms:
            t[r - 1 :: self.a] = map(add, t[r - 1 :: self.a],
                                     [c * j**i for j in range(r, N + 1, self.a)])
        return t


def _first_negative(a: int, terms: tuple, r: int, degree: int):
    """The least j = r (mod a) with b_j < 0 under the rule (a, terms), or
    None.  There b_j is a polynomial f(k) of degree <= degree in k = (j-r)/a.
    Each forward difference of f is monotone between the sign changes of the
    next, and the last is constant; so once all are >= 0 at hi, f stays >= 0
    past hi, and bisection finds each one's sign changes on [0, hi]."""
    def neg(m, k):  # the m-th forward difference of f is negative at k
        return sum((-1) ** (m - t) * math.comb(m, t) * c * (r + a * (k + t)) ** i
                   for t in range(m + 1) for s, i, c in terms if s == r) < 0

    def changes(m, hi):  # the k in (0, hi] where neg(m, k) != neg(m, k - 1)
        ends, out = [0, *(changes(m + 1, hi - 1) if m < degree else ()), hi], []
        for u, v in zip(ends, ends[1:]):  # where the m-th difference is monotone
            if neg(m, u) != neg(m, v):
                while v - u > 1:
                    w = (u + v) // 2
                    u, v = (w, v) if neg(m, w) == neg(m, u) else (u, w)
                out.append(v)
        return out

    hi = degree + 1  # each level m of changes needs hi - m >= 1
    while not neg(0, hi) and any(neg(m, hi) for m in range(1, degree + 1)):
        hi *= 2
    k = 0 if neg(0, 0) else next(iter(changes(0, hi)), None)
    return None if k is None else r + a * k


_PRESET_TERMS = {"standard": ((1, 0, 1),), "roots": ((1, 0, 1), (1, 1, 2))}


def make_preset(kind: str, a: int = None, b: int = None) -> ModelSpec:
    """Build one of the three preset models.

    standard:        b_j = 1
    roots:           b_j = 2j+1   (part j repeated (j+1)^2 - j^2 times)
    congruent(a,b):  b_j = 1 iff j = b (mod a), else 0; requires gcd(a,b)=1

    All presets use the multiset base and a QuasiPolynomial weight; a and b
    belong to congruent alone.
    """
    if isinstance(kind, str) and kind in _PRESET_TERMS:  # [1] is unhashable
        if a is not None or b is not None:
            raise InvalidParametersError(
                f"{kind} preset takes no a or b; got a={shown(a)}, b={shown(b)}")
        return ModelSpec(kind, MULTISET, QuasiPolynomial(1, _PRESET_TERMS[kind]))
    if kind != "congruent":
        raise InvalidParametersError(f"unknown preset kind: {shown(kind)}")
    int_arg("a", a, 1)
    int_arg("b", b, 1)
    if math.gcd(a, b) != 1:
        raise InvalidParametersError(
            f"congruent preset requires gcd(a,b)=1; got gcd({a},{b})={math.gcd(a, b)}"
        )
    rule = QuasiPolynomial(a, (((b - 1) % a + 1, 0, 1),))
    return ModelSpec("congruent", MULTISET, rule, params=(a, b))


def custom_model(
    weights: Sequence, base: BaseFunction = MULTISET, kind: str = "custom"
) -> ModelSpec:
    """Model whose weight rule reads a checked table b_1..b_N (undefined beyond N).

    Each entry is an int, a Fraction, a decimal or p/q string, or a whole
    float such as 2.0, and none is negative (InvalidParametersError)."""
    if isinstance(weights, str) or not isinstance(weights, Sequence):
        raise InvalidParametersError(f"weights must be a list; got {shown(weights)}")
    table = []
    for i, w in enumerate(weights):
        try:  # a str is read by Fraction, every other value by as_rational
            v = as_rational(Fraction(w) if isinstance(w, str) else w)
        except (ValueError, ZeroDivisionError):  # "abc", "1/0"
            v = None
        if v is None:
            msg = (f"weights[{i}] = {shown(w)} (b_{i + 1}) is not a rational number; "
                   "give a fraction as a decimal or p/q string")
            raise InvalidParametersError(msg)
        if v < 0:
            raise InvalidParametersError(f"weights[{i}] = {shown(w)}: b_{i + 1} < 0")
        table.append(v)

    def weight(j):  # ModelSpec.b checks j >= 1
        if j > len(table):
            raise UndefinedWeightError(
                f"weight table has {len(table)} entries; b_{j} undefined")
        return table[j - 1]
    return ModelSpec(kind, base, weight)


@dataclass(frozen=True)
class LambdaSeries:
    """Log-coefficients Lambda_1..Lambda_N of a model, always exact.

    k_values[k-1] = k*Lambda_k, the division-free form the counting
    recurrence wants: all ints exactly when f has integer coefficients
    (a multiset or selection base and every b_j an integer, so each
    factor (1 - z^j)^(-b_j) or (1 + z^j)^(b_j) has them), all Fractions
    otherwise.
    """

    k_values: tuple

    def k_lambda(self, k: int):
        return self.k_values[k - 1]


def lambda_coeffs(model: ModelSpec, N: int) -> LambdaSeries:
    """Lambda_k = sum_{j*m=k} b_j g_m for k = 1..N, exact rational.

    A divisor sieve of O(N log N) additions: k*Lambda_k sums j*b_j * m*g_m
    over j*m = k, and m*g_m is 1, (-1)^(m+1) or [m = 1] by base.
    """
    b = model.weights(int_arg("N", N, 1))
    if model.base is EXPONENTIAL:
        b = [Fraction(x) for x in b]
    acc = [type(b[0])()] * (N + 1)
    for j, bj in enumerate(b, start=1):
        if bj == 0:
            continue
        jbj = j * bj
        for k in range(j, (j if model.base is EXPONENTIAL else N) + 1, j):
            acc[k] += jbj
        if model.base is SELECTION:
            for k in range(2 * j, N + 1, 2 * j):
                acc[k] -= 2 * jbj
    return LambdaSeries(tuple(acc[1:]))


def llt_condition_report(model: ModelSpec, n_max: int, q_max: int) -> list:
    """Diagnostic for the local-limit-theorem weight condition.

    For each modulus q and each n on a geometric grid up to n_max,
    reports count(q, n) = sum_{k<=n, q does not divide k} b_k together
    with count/log^2 n.  The sufficient condition is asymptotic
    (count should dominate log^2 n), so this is a report, never a
    verdict.

    Returns a list of dicts with keys q, n, count, log_sq, ratio.
    """
    int_arg("n_max", n_max, 16)
    int_arg("q_max", q_max, 2, 64)
    grid = []
    n = 16
    while n < n_max:
        grid.append(n)
        n *= 2
    grid.append(n_max)
    b = model.weights(n_max)
    total = [0, *accumulate(b)]  # total[n] = b_1 + ... + b_n
    rows = []
    for q in range(2, q_max + 1):
        multiples = [0, *accumulate(b[q - 1 :: q])]  # [t] = b_q + ... + b_tq
        for n in grid:
            count = total[n] - multiples[n // q]
            log_sq = math.log(n) ** 2
            rows.append({"q": q, "n": n, "count": count, "log_sq": log_sq,
                         "ratio": float(count) / log_sq})
    return rows
