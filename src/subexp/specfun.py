"""Special-function values backing the spectral computations.

Riemann zeta, the exact Hurwitz zeta at nonpositive integers and the
Hurwitz zeta derivative in s, with the closed forms that the pole/residue
derivations and the self-checks need.  Numerical evaluation is delegated
to mpmath at the global working precision.

No function checks its domain: derive_spectrum chooses every point it
evaluates (for hurwitz_zeta_exact an int m <= 0 and a rational
0 < q <= 1, whose Bernoulli row is built on first use).
"""

from fractions import Fraction
from functools import cache
from math import comb, lcm

from mpmath import mp, mpf

from .precision import to_mpf


@cache
def _bernoulli(k: int) -> tuple:
    """B_k as mp.bernfrac's (p, q), so that rows 0..n take n + 1 calls."""
    return mp.bernfrac(k)


@cache
def _bernoulli_row(n: int) -> tuple:
    """(den, the int coefficients of den*B_n(x) from x^n to x^0), den the
    lcm of the denominators of B_0..B_n; B_n(x) = sum C(n, k) B_k x^(n-k)."""
    b = [_bernoulli(k) for k in range(n + 1)]
    den = lcm(*(q for _, q in b))
    return den, tuple(comb(n, k) * p * (den // q) for k, (p, q) in enumerate(b))


def riemann_zeta(s) -> mpf:
    """zeta(s) for real s != 1."""
    return mp.zeta(to_mpf(s))


def riemann_zeta_deriv(s) -> mpf:
    """zeta'(s) = hurwitz_zeta_deriv(s, 1), in closed form at s = 0 and -1."""
    return hurwitz_zeta_deriv(s, 1)


def hurwitz_zeta_exact(m: int, q) -> Fraction:
    """zeta(m, q) = -B_{1-m}(q)/(1-m), exactly, for an int m <= 0 and a
    rational 0 < q <= 1 (an int or a Fraction); q = 1 gives zeta(m)."""
    n, (p, d) = 1 - m, Fraction(q).as_integer_ratio()
    den, row = _bernoulli_row(n)
    total = 0  # den * d^n * B_n(p/d), by Horner in p
    for k, c in enumerate(row):
        total = total * p + c * d**k
    return Fraction(-total, n * den * d**n)


def hurwitz_zeta_deriv(s, q) -> mpf:
    """d/ds zeta(s, q) for real s != 1 and 0 < q <= 1.

    Lerch's log Gamma(q) - log(2*pi)/2 at s = 0 (zeta'(0) = -log(2*pi)/2
    at q = 1) and zeta'(-1) = 1/12 - log A at (-1, 1), with A the
    Glaisher-Kinkelin constant, some 60 times faster than mpmath's
    numerical derivative used elsewhere.
    """
    s, q = to_mpf(s), to_mpf(q)
    if s == 0:
        return mp.loggamma(q) - mp.log(2 * mp.pi) / 2
    if s == -1 and q == 1:
        return mpf(1) / 12 - mp.log(mp.glaisher)
    return mp.zeta(s, q, 1)
