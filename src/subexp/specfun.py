"""Special-function values backing the spectral computations.

Riemann zeta, the exact Hurwitz zeta at nonpositive integers, the Hurwitz
zeta derivative in s and the constants (zeta'(0), zeta'(-1),
Euler-Mascheroni) that the pole/residue derivations need.  Numerical
evaluation is delegated to mpmath at the global working precision; this
module adds the domain contracts and the closed forms.  Every function
returns a finite mpf, or raises; hurwitz_zeta_exact returns a Bernoulli
value as an exact Fraction.

Domains are restricted to what the residue formulas actually consume:
real arguments, zeta on [-21, 40], the Hurwitz zeta derivative on
[-21, 40] x (0, 1] and the exact Hurwitz zeta on the integers of
[-21, 0] x (0, 1] (derive_spectrum with L <= 20 reaches the exact
zeta(-21, 1) for roots).
"""

from fractions import Fraction
from math import comb, lcm

from mpmath import mp, mpf, isfinite

from .errors import DomainError, PoleError, UnsupportedPointError
from .precision import to_mpf

POLE_GUARD = mpf("1e-9")

ZETA_MIN, ZETA_MAX = -21, 40
HURWITZ_MIN, HURWITZ_MAX = -21, 40


# B_n(x) = sum C(n, k) B_k x^(n-k), n = 1..22, times _DEN, the lcm of the
# denominators of B_0..B_22, has integer coefficients; listed from x^n to x^0
_B = [mp.bernfrac(k) for k in range(2 - HURWITZ_MIN)]
_DEN = lcm(*(q for _, q in _B))
_BERNOULLI = {n: tuple(comb(n, k) * p * (_DEN // q)
                       for k, (p, q) in enumerate(_B[:n + 1]))
              for n in range(1, 2 - HURWITZ_MIN)}


def _result(value) -> mpf:
    if not isfinite(value):
        raise DomainError(f"evaluation produced a non-finite value: {value}")
    return value


def riemann_zeta(s) -> mpf:
    """zeta(s) for real s in [-21, 40], s != 1."""
    s = to_mpf(s)
    if abs(s - 1) < POLE_GUARD:
        raise PoleError(f"zeta has a pole at s=1; got s={s}")
    if not (ZETA_MIN <= s <= ZETA_MAX):
        raise DomainError(f"zeta supported on [{ZETA_MIN}, {ZETA_MAX}]; got s={s}")
    return _result(mp.zeta(s))


def riemann_zeta_deriv(s) -> mpf:
    """zeta'(s) at the two points with closed forms, s = 0 and s = -1.

    zeta'(0) = -log(2*pi)/2 and zeta'(-1) = 1/12 - log A, with A the
    Glaisher-Kinkelin constant.
    """
    s = to_mpf(s)
    if s == 0:
        return _result(-mp.log(2 * mp.pi) / 2)
    if s == -1:
        return _result(mpf(1) / 12 - mp.log(mp.glaisher))
    raise UnsupportedPointError(f"zeta' available only at s=0 and s=-1; got s={s}")


def hurwitz_zeta_exact(m: int, q) -> Fraction:
    """zeta(m, q) = -B_{1-m}(q)/(1-m), exactly, for an int m in [-21, 0] and
    a rational 0 < q <= 1 (an int or a Fraction); q = 1 gives zeta(m)."""
    if not (isinstance(m, int) and HURWITZ_MIN <= m <= 0
            and isinstance(q, (int, Fraction)) and 0 < q <= 1):
        raise DomainError(f"exact zeta(m, q) needs an int m in [{HURWITZ_MIN}, 0] and "
                          f"a rational 0 < q <= 1; got m={m!r}, q={q!r}")
    n, (p, d) = 1 - m, Fraction(q).as_integer_ratio()
    total = 0  # _DEN * d^n * B_n(p/d), by Horner in p
    for k, c in enumerate(_BERNOULLI[n]):
        total = total * p + c * d**k
    return Fraction(-total, n * _DEN * d**n)


def hurwitz_zeta_deriv(s, q) -> mpf:
    """d/ds zeta(s, q) for real s in [-21, 40], s != 1, and 0 < q <= 1.

    Lerch's log Gamma(q) - log(2*pi)/2 at s = 0 and zeta'(-1) at (-1, 1),
    some 60 times faster than mpmath's numerical derivative used elsewhere.
    """
    s = to_mpf(s)
    q = to_mpf(q)
    if abs(s - 1) < POLE_GUARD:
        raise PoleError(f"zeta(s, q) has a pole at s=1; got s={s}")
    if not (HURWITZ_MIN <= s <= HURWITZ_MAX):
        raise DomainError(
            f"zeta(s, q) supported on [{HURWITZ_MIN}, {HURWITZ_MAX}]; got s={s}"
        )
    if not (0 < q <= 1):
        raise DomainError(f"zeta(s, q) requires 0 < q <= 1; got q={q}")
    if s == 0:
        return _result(mp.loggamma(q) - mp.log(2 * mp.pi) / 2)
    if s == -1 and q == 1:
        return riemann_zeta_deriv(s)
    return _result(mp.zeta(s, q, 1))


def euler_gamma() -> mpf:
    """Euler-Mascheroni constant, lim (H_n - log n)."""
    return _result(+mp.euler)
