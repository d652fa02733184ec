"""Global working-precision configuration.

All numeric evaluation in this package runs on mpmath's global real
context.  The default of 38 significant digits leaves ample headroom for
log-scale comparisons near n = 10**6, where the interesting differences
between predictions sit many orders of magnitude below the values
themselves.  Set the precision once, before any parallel use; every
function here is otherwise pure.
"""

from mpmath import mp, mpmathify

from .errors import InvalidParametersError

DEFAULT_DPS = 38

mp.dps = DEFAULT_DPS


def set_working_precision(dps: int) -> None:
    """Set the global precision to `dps` significant decimal digits, an int >= 15."""
    if type(dps) is not int or dps < 15:  # InvalidParametersError is a ValueError
        raise InvalidParametersError(
            f"working precision must be >= 15 digits, got {dps!r}")
    mp.dps = dps


def to_mpf(x):
    """Convert ints, floats, strings, Fractions and mpf to mpf.

    Rational inputs are rounded only once, at the working precision.
    """
    return mpmathify(x)
