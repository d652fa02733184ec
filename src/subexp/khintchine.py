"""The saddle-point-style equation fixing the tilting parameter delta_n.

    sum_{l=1}^r h_l rho_l delta^(-rho_l-1) + A_0 delta^(-1) + D(-1) = n

has a unique positive solution delta_n for every n > D(-1); z_n = 1/delta_n
is the scale at which the generating function is tilted.  The left side is
close to a power law in delta, so we run Newton in log(delta) from the
two-term expansion of z_n, safeguarded by bisection (rtsafe, Numerical
Recipes 9.4).
"""

from typing import NamedTuple

from mpmath import mp, mpf

from .errors import (
    DomainError,
    InvalidParametersError,
    NoBracketError,
    NonConvergenceError,
)
from .precision import to_mpf
from .spectrum import SpectralData

MAX_ITER = 200
BRACKET_MIN = mpf("1e-12")
BRACKET_MAX = mpf("1e12")


class KhintchineSolution(NamedTuple):
    delta: mpf
    residual: mpf
    iterations: int
    bracket: tuple
    newton_steps: int
    bisection_steps: int


def residual_tolerance(n) -> mpf:
    # lhs grows like n, so a pure absolute tolerance is unattainable at
    # large n in fixed precision
    return max(mpf("1e-10") * n, mpf("1e-12"))


def khintchine_lhs(sd: SpectralData, delta) -> mpf:
    """Left side of the equation at a given delta > 0."""
    delta = to_mpf(delta)
    if not delta > 0:
        raise DomainError(f"delta must be positive; got {delta}")
    total = sd.d1() + sd.A0 / delta
    for rho, h in sd.poles:
        total += h * rho * delta ** (-rho - 1)
    return total


def khintchine_lhs_deriv(sd: SpectralData, delta) -> mpf:
    delta = to_mpf(delta)
    total = -sd.A0 / delta**2
    for rho, h in sd.poles:
        total += -h * rho * (rho + 1) * delta ** (-rho - 2)
    return total


def initial_guess(sd: SpectralData, n) -> mpf:
    """Two-term asymptotic expansion of z_n = 1/delta_n, used to seed
    the solver and to cross-check the solved root.

    Leading term (n/(rho_r h_r))^(1/(rho_r+1)); the r >= 2 correction has
    magnitude M (rho_r h_r)^(-e) n^e with e = (rho_{r-1}-rho_r+1)/(rho_r+1)
    and M = rho_{r-1} h_{r-1} / ((rho_r+1) rho_r h_r).  The expansion's
    printed sign does not balance the equation, so the sign is chosen
    adaptively: whichever candidate brings the equation's left side
    closer to n (the numeric solve stays authoritative).
    """
    n = to_mpf(n)
    if not n >= 1:
        raise InvalidParametersError(f"need n >= 1; got {n}")
    rho_r, h_r = sd.poles[-1]
    z0 = (n / (rho_r * h_r)) ** (1 / (rho_r + 1))
    if sd.r == 1:
        return z0
    rho_p, h_p = sd.poles[-2]
    e = (rho_p - rho_r + 1) / (rho_r + 1)
    M = rho_p * h_p / ((rho_r + 1) * rho_r * h_r)
    w = M * (rho_r * h_r) ** (-e) * n**e
    best = z0
    best_err = abs(khintchine_lhs(sd, 1 / z0) - n)
    for cand in (z0 - w, z0 + w):
        if cand <= 0:
            continue
        err = abs(khintchine_lhs(sd, 1 / cand) - n)
        if err < best_err:
            best, best_err = cand, err
    return best


def solve_delta(sd: SpectralData, n) -> KhintchineSolution:
    """Solve for delta_n by Newton in log(delta) from 1/initial_guess.

    Iterates narrow the bracket [BRACKET_MIN, BRACKET_MAX] by the sign of
    F = lhs - n; a step leaving it becomes the geometric bisection.  Stops at
    |F| <= max(1e-10*n, 1e-12) with a log-step (the relative error) below
    sqrt(eps): delta is exact to about half the working precision on any
    path, and lo < delta < hi strictly.  iterations counts the steps taken.
    A seed or root outside the initial bracket raises NoBracketError.
    """
    n = to_mpf(n)
    if not n >= 1:
        raise InvalidParametersError(f"need n >= 1; got {n}")
    if not n > sd.d1():
        raise InvalidParametersError(
            f"no positive solution: need n > D(-1) = {sd.d1()}; got n={n}"
        )
    tol = residual_tolerance(n)
    lo, hi = BRACKET_MIN, BRACKET_MAX
    x = 1 / initial_guess(sd, n)
    if not lo < x < hi:
        raise NoBracketError(f"seed delta={x} outside [{lo}, {hi}] for n={n}")
    newtons = 0
    bisections = 0
    for it in range(MAX_ITER + 1):
        fx = khintchine_lhs(sd, x) - n
        dfx = x * khintchine_lhs_deriv(sd, x)
        step = -fx / dfx if dfx else mp.inf
        if abs(fx) <= tol and abs(step) <= mp.sqrt(mp.eps):
            return KhintchineSolution(x, fx, it, (lo, hi), newtons, bisections)
        if fx > 0:
            lo = x
        else:
            hi = x
        x_new = x * mp.exp(step)
        if lo < x_new < hi:
            newtons += 1
            x = x_new
        else:
            bisections += 1
            x = mp.sqrt(lo * hi)
    if lo == BRACKET_MIN or hi == BRACKET_MAX:
        raise NoBracketError(f"no root in [{BRACKET_MIN}, {BRACKET_MAX}] for n={n}")
    raise NonConvergenceError(f"no convergence after {MAX_ITER} iterations for n={n}")
