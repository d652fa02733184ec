"""Global working-precision configuration, and the argument domains every
entry point reads through: int_arg for an int parameter (N, L, dps, a, b,
j), as_real for a real one (n, tau, delta), to_mpf where a str is data too.

All numeric evaluation in this package runs on mpmath's global real
context.  The default of 38 significant digits leaves ample headroom for
log-scale comparisons near n = 10**6, where the interesting differences
between predictions sit many orders of magnitude below the values
themselves.  Set the precision once, before any parallel use; every
function here is otherwise pure.
"""

from mpmath import mp, mpf, mpmathify

from .errors import InvalidParametersError

DEFAULT_DPS = 38

mp.dps = DEFAULT_DPS


def int_arg(name: str, x, lo: int, hi: int = None) -> int:
    """x when it is an int (not a bool, float or str) with lo <= x <= hi, no
    bound above when hi is None; InvalidParametersError otherwise."""
    if type(x) is not int or x < lo or (hi is not None and x > hi):
        bounds = f"{name} >= {lo}" if hi is None else f"{lo} <= {name} <= {hi}"
        raise InvalidParametersError(f"need an int {bounds}; got {x!r}")
    return x


def as_real(x):
    """x as an mpf when it is a real number: an int, float, Fraction or mpf,
    never a bool, str, None or complex.  None otherwise, so that each caller
    raises its own error."""
    if isinstance(x, (bool, str)):
        return None
    try:
        x = mpmathify(x)
    except (TypeError, ValueError):
        return None
    return x if isinstance(x, mpf) else None


def to_mpf(x):
    """x as an mpf: a real number as as_real reads it, or a numeric str such
    as "0.1" or "1/3", which is rounded once at the working precision, as a
    Fraction is; InvalidParametersError for anything else."""
    try:
        v = mpmathify(x) if isinstance(x, str) else as_real(x)
    except (TypeError, ValueError, ZeroDivisionError):  # a str mpmath cannot read
        v = None
    if not isinstance(v, mpf):  # None, or the mpc of a str such as "1j"
        raise InvalidParametersError(f"need a real number or a numeric str; got {x!r}")
    return v


def set_working_precision(dps: int) -> None:
    """Set the global precision to `dps` significant decimal digits, an int >= 15.

    No upper bound: time and memory grow with dps.  Past about 5e307 digits
    mpmath's float conversion overflows, which raises InvalidParametersError
    too, with mp unchanged."""
    try:
        mp.dps = int_arg("dps", dps, 15)
    except OverflowError:
        raise InvalidParametersError(f"dps={dps} is past what mpmath can hold") from None
