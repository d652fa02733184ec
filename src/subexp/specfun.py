"""Special-function values backing the spectral computations.

Riemann zeta, the exact Hurwitz zeta at nonpositive integers and the
Hurwitz zeta derivative in s, with the closed forms that the pole/residue
derivations and the self-checks need.  Numerical evaluation is delegated
to mpmath at the global working precision.

No function checks its domain: derive_spectrum chooses every point it
evaluates, and bounds its degree + L below BERNOULLI_MAX, the depth of
the Bernoulli table behind hurwitz_zeta_exact (an int m in
[1 - BERNOULLI_MAX, 0] and a rational 0 < q <= 1).
"""

from fractions import Fraction
from math import comb, lcm

from mpmath import mp, mpf

from .precision import to_mpf

BERNOULLI_MAX = 22

# B_n(x) = sum C(n, k) B_k x^(n-k), n = 1..BERNOULLI_MAX, times _DEN, the
# lcm of the denominators of B_0..B_22, has integer coefficients; listed
# from x^n to x^0
_B = [mp.bernfrac(k) for k in range(BERNOULLI_MAX + 1)]
_DEN = lcm(*(q for _, q in _B))
_BERNOULLI = {n: tuple(comb(n, k) * p * (_DEN // q)
                       for k, (p, q) in enumerate(_B[:n + 1]))
              for n in range(1, BERNOULLI_MAX + 1)}


def riemann_zeta(s) -> mpf:
    """zeta(s) for real s != 1."""
    return mp.zeta(to_mpf(s))


def riemann_zeta_deriv(s) -> mpf:
    """zeta'(s) = hurwitz_zeta_deriv(s, 1), in closed form at s = 0 and -1."""
    return hurwitz_zeta_deriv(s, 1)


def hurwitz_zeta_exact(m: int, q) -> Fraction:
    """zeta(m, q) = -B_{1-m}(q)/(1-m), exactly, for an int m in [-21, 0] and
    a rational 0 < q <= 1 (an int or a Fraction); q = 1 gives zeta(m)."""
    n, (p, d) = 1 - m, Fraction(q).as_integer_ratio()
    total = 0  # _DEN * d^n * B_n(p/d), by Horner in p
    for k, c in enumerate(_BERNOULLI[n]):
        total = total * p + c * d**k
    return Fraction(-total, n * _DEN * d**n)


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
