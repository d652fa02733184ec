"""The saddle-point-style equation fixing the tilting parameter delta_n.

    sum_{l=1}^r h_l rho_l delta^(-rho_l-1) + A_0 delta^(-1) + D(-1) = n

has a unique positive solution delta_n for every n > D(-1); z_n = 1/delta_n
is the scale at which the generating function is tilted.  With one pole at
rho = 1 the equation is a quadratic in 1/delta, whose root the solver takes
in closed form.  Otherwise the left side is close to a power law in delta,
so log(lhs) is close to linear in u = log(delta).  The solver runs Newton on
log lhs(e^u) - log n in Python floats from the leading term
(rho_r h_r / n)^(1/(rho_r+1)), then polishes that root by Newton in
log(delta) at the working precision, safeguarded by bisection (rtsafe,
Numerical Recipes 9.4), with a log-free step near the root.  When floats
cannot reach the root, the same safeguarded loop starts instead from that
leading term, computed at the working precision.  Every path stops once
the step is below sqrt(eps) and |lhs - n| <= 1e-10 max(n, sum of |terms|).

The solver's per-spectrum constants are one record, built once per spectrum
and working precision (SpectralData.memo): raw values for the left side and
the quadratic seed, floats for the float phase.  The left side, that record
and the set-up and polish loop run on raw mpmath.libmp values: the same
operations, in the same order and at mp's precision and rounding, as the
mpf expressions quoted beside them, so every result is bit for bit what mpf
arithmetic gives.
"""

import math
from functools import lru_cache
from typing import NamedTuple

from mpmath import mp, mpf
from mpmath.libmp import (
    finf,
    fone,
    from_float,
    ftwo,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_exp,
    mpf_ge,
    mpf_gt,
    mpf_le,
    mpf_log,
    mpf_lt,
    mpf_mul,
    mpf_neg,
    mpf_pow,
    mpf_shift,
    mpf_sqrt,
    mpf_sub,
    mpf_sum,
    to_float,
)

from .errors import (
    DomainError,
    InvalidParametersError,
    NoBracketError,
    NonConvergenceError,
)
from .precision import as_real, shown
from .spectrum import SpectralData

MAX_ITER = 200
BRACKET_MIN = mpf("1e-12")
BRACKET_MAX = mpf("1e12")
# the float phase: its step cap, and its convergence threshold on the
# log-step (Newton's next error is near its square, far below float rounding)
FLOAT_MAX_ITER = 16
FLOAT_STEP_TOL = 1e-12
# the polish's Newton steps s below this take the log-free series step
SERIES_STEP_MAX = mpf(2) ** -26
_FLOAT_BRACKET = (float(BRACKET_MIN), float(BRACKET_MAX))


class KhintchineSolution(NamedTuple):
    delta: mpf
    residual: mpf
    bracket: tuple
    newton_steps: int
    bisection_steps: int

    @property
    def iterations(self) -> int:
        return self.newton_steps + self.bisection_steps


@lru_cache(maxsize=8)
def _stop_constants(prec: int) -> tuple:
    """1e-10 and sqrt(eps) at a precision of prec bits, raw."""
    with mp.workprec(prec):
        return tuple(v._mpf_ for v in (mpf("1e-10"), mp.sqrt(mp.eps)))


def _lhs_and_slope(sd: SpectralData, x) -> tuple:
    """lhs(x) and x*lhs'(x) together, with one power per pole, for a raw
    x > 0; raw results."""
    prec, rounding = mp._prec_rounding
    d1, A0, poles, _, _, _ = sd.memo(_solver_constants)
    a0 = mpf_div(A0, x, prec, rounding)  # a0 = sd.A0 / x
    lhs = mpf_add(d1, a0, prec, rounding)  # lhs = D(-1) + a0
    slope = mpf_neg(a0, prec, rounding)  # slope = -a0
    for c, e, k in poles:
        t = mpf_mul(c, mpf_pow(x, e, prec, rounding), prec, rounding)  # c * x**e
        lhs = mpf_add(lhs, t, prec, rounding)  # lhs += t
        # slope -= k * t
        slope = mpf_sub(slope, mpf_mul(k, t, prec, rounding), prec, rounding)
    return lhs, slope


def _term_size(sd: SpectralData, x):
    """mp.fsum([D(-1), sd.A0 / x] + [c * x**e per pole], absolute=True) at a raw
    x > 0, the scale of lhs's rounding error (Higham 2002, 4.2); raw."""
    prec, rounding = mp._prec_rounding
    d1, A0, poles, _, _, _ = sd.memo(_solver_constants)
    terms = [mpf_mul(c, mpf_pow(x, e, prec, rounding), prec, rounding) for c, e, _ in poles]
    return mpf_sum([d1, mpf_div(A0, x, prec, rounding)] + terms, prec, rounding, True)


def khintchine_lhs(sd: SpectralData, delta) -> mpf:
    """Left side of the equation at a given real delta > 0."""
    v = as_real(delta)
    if v is None or not v > 0:
        raise DomainError(f"delta must be a positive number; got {shown(delta)}")
    return mp.make_mpf(_lhs_and_slope(sd, v._mpf_)[0])


def _as_float(v) -> float:
    """A raw v as a finite float; OverflowError when it overflows or underflows."""
    f = to_float(v, rnd=mp._prec_rounding[1])
    if not math.isfinite(f) or (f == 0 and v != fzero):
        raise OverflowError(f"{mp.make_mpf(v)} is out of float range")
    return f


def _solver_constants(sd: SpectralData) -> tuple:
    """D(-1), A0 and (h rho, -rho-1, rho+1) per pole, raw, for _lhs_and_slope;
    the series step's k = rho_r/2 + 1, raw; for one pole at rho = 1, the
    quadratic seed's A0*A0, 2h and 4h, raw, else None; then _float_root's
    rho_r h_r, 1/(rho_r+1), A0, D(-1) and those triples in floats, or None
    when a value is out of float range."""
    prec, rounding = mp._prec_rounding
    rho_h = [(rho._mpf_, h._mpf_) for rho, h in sd.poles]
    d1, A0 = sd.d_neg[0]._mpf_, sd.A0._mpf_
    # (h * rho, -rho - 1, rho + 1) per pole
    poles = tuple((mpf_mul(h, rho, prec, rounding),
                   mpf_sub(mpf_neg(rho, prec, rounding), fone, prec, rounding),
                   mpf_add(rho, fone, prec, rounding)) for rho, h in rho_h)
    # k = rho_r / 2 + 1
    k = mpf_add(mpf_div(rho_h[-1][0], ftwo, prec, rounding), fone, prec, rounding)
    quadratic = None  # (A0 * A0, 2 * h, 4 * h) for one pole at rho = 1
    if [rho for rho, _ in rho_h] == [fone]:
        h2 = mpf_mul(ftwo, rho_h[0][1], prec, rounding)  # 4 * h rounds as 2 * (2 * h)
        quadratic = (mpf_mul(A0, A0, prec, rounding), h2, mpf_shift(h2, 1))
    try:
        floats = [(_as_float(rho), _as_float(h)) for rho, h in rho_h]
        a0, d1f = _as_float(A0), _as_float(d1)
    except OverflowError:
        return d1, A0, poles, k, quadratic, None
    rho_r, h_r = floats[-1]
    factors = tuple((h * rho, -rho - 1, rho + 1) for rho, h in floats)
    return d1, A0, poles, k, quadratic, (rho_r * h_r, 1 / (rho_r + 1), a0, d1f, factors)


def _float_root(sd: SpectralData, n) -> "float | None":
    """delta_n by Newton on log lhs(e^u) - log n in floats, from the leading
    term (rho_r h_r / n)^(1/(rho_r+1)).

    None when floats cannot reach the root: a value overflows, underflows or
    is not finite, lhs <= 0, an iterate leaves [BRACKET_MIN, BRACKET_MAX], or
    FLOAT_MAX_ITER steps do not converge.
    """
    constants = sd.memo(_solver_constants)[5]
    if constants is None:
        return None
    seed_base, seed_power, a0, d1, poles = constants
    try:
        nf = _as_float(n._mpf_)
        x = (seed_base / nf) ** seed_power
        lo, hi = _FLOAT_BRACKET
        for _ in range(FLOAT_MAX_ITER):
            if not lo < x < hi:
                return None
            lhs = d1 + a0 / x
            slope = -a0 / x
            for c, e, k in poles:
                t = c * x**e
                if t == 0:
                    return None
                lhs += t
                slope -= k * t
            if not (lhs > 0 and math.isfinite(lhs) and math.isfinite(slope)):
                return None
            step = -math.log(lhs / nf) * lhs / slope
            x *= math.exp(step)
            if abs(step) <= FLOAT_STEP_TOL:
                return x if lo < x < hi else None
    except (OverflowError, ZeroDivisionError, ValueError):
        pass
    return None


def _no_bracket(sd: SpectralData, n, message: str) -> NoBracketError:
    # delta_n < BRACKET_MIN exactly when n >= lhs(BRACKET_MIN): name that bound
    bound = mp.make_mpf(_lhs_and_slope(sd, BRACKET_MIN._mpf_)[0])
    return NoBracketError(f"delta_n < {BRACKET_MIN} at n = {n}: the Khintchine "
                          f"equation needs n < {bound}" if n >= bound else message)


def solve_delta(sd: SpectralData, n) -> KhintchineSolution:
    """Solve for delta_n: a seed polished by Newton in log(delta).

    With one pole at rho = 1 the seed is the positive root of
    m delta^2 - A0 delta - h = 0, m = n - D(-1): (A0 + S)/(2m) for A0 >= 0
    and 2h/(S - A0) for A0 < 0, S = sqrt(A0^2 + 4hm), at the working
    precision, so delta is exact to a few ulps and the loop below normally
    returns at its first evaluation with no step.  Otherwise the seed is the
    float-phase root (_float_root), or the leading term in mpmath when
    floats cannot reach it.  Each step evaluates lhs and delta*lhs'
    together; iterates narrow the bracket [BRACKET_MIN, BRACKET_MAX] by the
    sign of F = lhs - n, and a step leaving it becomes the geometric
    bisection.  Where lhs > 0 the step is Newton's on log lhs - log n, which
    moves as fast far from the root as near it.  Once s = -F/(delta*lhs')
    is below SERIES_STEP_MAX, the next delta is delta*(1 + s + k s^2),
    k = rho_r/2 + 1, with no log or exp: the root of a pure power law
    lhs = c delta^-(rho_r+1) to O(s^3).  Stops once s (the relative error)
    is below sqrt(eps) and |F| <= 1e-10 max(n, _term_size); off the closed
    form delta is then exact to about half the working precision, and
    lo < delta < hi strictly.  iterations counts the steps taken (Newton
    plus bisection), so the loop evaluates lhs iterations + 1 times.  A seed
    or root outside the initial bracket raises NoBracketError.
    """
    # set-up and polish loop on raw values; each comment is the mpf expression
    prec, rounding = mp._prec_rounding
    v = as_real(n)
    if v is None:
        raise InvalidParametersError(f"need a number n >= 1; got {shown(n)}")
    n, n_ = v, v._mpf_
    if not mpf_ge(n_, fone):  # n >= 1
        raise InvalidParametersError(f"need n >= 1; got {n}")
    if not mpf_gt(n_, sd.d_neg[0]._mpf_):  # n > D(-1)
        raise InvalidParametersError(
            f"no positive solution: need n > D(-1) = {sd.d_neg[0]}; got n={n}"
        )
    rel, step_tol = _stop_constants(prec)
    tol = mpf_mul(rel, n_, prec, rounding)  # tol = 1e-10 * n
    lo, hi = BRACKET_MIN._mpf_, BRACKET_MAX._mpf_
    d1, A0, _, k, quadratic, _ = sd.memo(_solver_constants)
    if quadratic is not None:  # the positive root of m x^2 - A0 x - h
        A0_sq, h2, h4 = quadratic
        m = mpf_sub(n_, d1, prec, rounding)  # m = n - D(-1)
        # S = mp.sqrt(A0 * A0 + 4 * h * m)
        S = mpf_add(A0_sq, mpf_mul(h4, m, prec, rounding), prec, rounding)
        S = mpf_sqrt(S, prec, rounding)
        if mpf_ge(A0, fzero):  # x = (A0 + S) / (2 * m), exact doubling
            x = mpf_div(mpf_add(A0, S, prec, rounding), mpf_shift(m, 1), prec, rounding)
        else:  # x = 2 * h / (S - A0)
            x = mpf_div(h2, mpf_sub(S, A0, prec, rounding), prec, rounding)
    else:
        x = _float_root(sd, n)
        if x is None:
            rho_r, h_r = sd.poles[-1]
            x = (rho_r * h_r / n) ** (1 / (rho_r + 1))
        x = from_float(x, prec, rounding) if type(x) is float else x._mpf_  # mpf(x)
    if not (mpf_lt(lo, x) and mpf_lt(x, hi)):  # lo < x < hi
        raise _no_bracket(sd, n, f"seed delta={mp.make_mpf(x)} outside "
                          f"[{BRACKET_MIN}, {BRACKET_MAX}] for n={n}")
    newtons = 0
    bisections = 0
    for _ in range(MAX_ITER + 1):
        lhs, slope = _lhs_and_slope(sd, x)
        fx = mpf_sub(lhs, n_, prec, rounding)  # fx = lhs - n
        # step = -fx / slope if slope else mp.inf
        step = (mpf_div(mpf_neg(fx, prec, rounding), slope, prec, rounding)
                if slope != fzero else finf)
        size = mpf_abs(step, prec, rounding)  # size = abs(step)
        fabs = mpf_abs(fx, prec, rounding)  # fabs <= 1e-10 * max(n, _term_size(sd, x))
        if mpf_le(size, step_tol) and (mpf_le(fabs, tol) or mpf_le(
                fabs, mpf_mul(rel, _term_size(sd, x), prec, rounding))):
            make = mp.make_mpf
            return KhintchineSolution(make(x), make(fx), (make(lo), make(hi)),
                                      newtons, bisections)
        if mpf_gt(fx, fzero):  # fx > 0
            lo = x
        else:
            hi = x
        if mpf_lt(size, SERIES_STEP_MAX._mpf_):  # size < SERIES_STEP_MAX
            # x_new = x + x * (step + k * step * step)
            t = mpf_mul(mpf_mul(k, step, prec, rounding), step, prec, rounding)
            t = mpf_mul(x, mpf_add(step, t, prec, rounding), prec, rounding)
            x_new = mpf_add(x, t, prec, rounding)
        else:
            if mpf_gt(lhs, fzero) and slope != fzero:  # lhs > 0 and slope
                # step = -mp.log(lhs / n) * lhs / slope
                log_ratio = mpf_log(mpf_div(lhs, n_, prec, rounding), prec, rounding)
                step = mpf_neg(log_ratio, prec, rounding)
                step = mpf_div(mpf_mul(step, lhs, prec, rounding), slope, prec, rounding)
            # x_new = x * mp.exp(step)
            x_new = mpf_mul(x, mpf_exp(step, prec, rounding), prec, rounding)
        if mpf_lt(lo, x_new) and mpf_lt(x_new, hi):  # lo < x_new < hi
            newtons += 1
            x = x_new
        else:
            bisections += 1
            # x = mp.sqrt(lo * hi)
            x = mpf_sqrt(mpf_mul(lo, hi, prec, rounding), prec, rounding)
    lo, hi = mp.make_mpf(lo), mp.make_mpf(hi)
    if lo == BRACKET_MIN or hi == BRACKET_MAX:
        raise _no_bracket(sd, n, f"no root in [{BRACKET_MIN}, {BRACKET_MAX}] for n={n}")
    raise NonConvergenceError(f"no convergence after {MAX_ITER} iterations for n={n}")
