"""The default working precision, and the argument domains every
entry point reads through: int_arg for an int parameter (N, L, a, b, j),
as_real for a real one (n, tau, delta), to_mpf where a str is data too, and
as_rational for a weight value (b_j, or a rule coefficient c); shown formats
a rejected value for the error message.

All numeric evaluation in this package runs on mpmath's global real
context.  The default of 38 significant digits, set on import, leaves
ample headroom for log-scale comparisons near n = 10**6, where the
interesting differences between predictions sit many orders of magnitude
below the values themselves.  Set mp.dps, or scope a run with
mp.workdps, before any parallel use; every function here is otherwise pure.
"""

import sys
from fractions import Fraction
from numbers import Rational

from mpmath import mp, mpf, mpmathify

from .errors import InvalidParametersError

DEFAULT_DPS = 38

mp.dps = DEFAULT_DPS


def int_arg(name: str, x, lo: int, hi: int = sys.maxsize) -> int:
    """x when it is an int (not a bool, float or str) with lo <= x <= hi;
    InvalidParametersError otherwise.  hi defaults to sys.maxsize, past which
    no list or range can hold a size."""
    if type(x) is not int or not lo <= x <= hi:
        bounds = f"{name} >= {lo}" if hi == sys.maxsize else f"{lo} <= {name} <= {hi}"
        raise InvalidParametersError(f"need an int {bounds}; got {shown(x)}")
    return x


def shown(x) -> str:
    """repr(x) for an error message, but an int past sys.maxsize, or a
    Fraction with such a part, by its bit length: its repr may pass the
    int-to-str limit (sys.get_int_max_str_digits) and raise ValueError.  Any
    other value whose repr raises ValueError (a list holding such an int) is
    shown by its type."""
    if isinstance(x, int) and abs(x) > sys.maxsize:
        return f"an int of {x.bit_length()} bits"
    if isinstance(x, Fraction) and max(abs(x.numerator), x.denominator) > sys.maxsize:
        num, den = x.numerator.bit_length(), x.denominator.bit_length()
        return f"a Fraction of {num}/{den} bits"
    try:
        return repr(x)
    except ValueError:
        return f"a {type(x).__name__} whose repr passes the int-to-str limit"


def as_rational(x):
    """The exact value of x (an int when whole, else a Fraction) when x is an
    int, a Fraction or a whole float; None for a bool, str, other float (0.1
    would be its binary value), nan, inf or complex, for the caller to raise on."""
    if isinstance(x, float) and x.is_integer():  # False at nan and inf
        x = int(x)
    if isinstance(x, bool) or not isinstance(x, Rational):
        return None
    return int(x) if x.denominator == 1 else Fraction(x)


def as_real(x):
    """x as an mpf when it is a real number: an int, float, Fraction or mpf,
    never a bool, str, None or complex; a Fraction is rounded once, to
    nearest.  None otherwise, so that each caller raises its own error."""
    if isinstance(x, (bool, str)):
        return None
    if not isinstance(x, int) and isinstance(x, Rational):  # mpmathify rounds down
        return mp.fdiv(x.numerator, x.denominator)
    try:
        x = mpmathify(x)
    except (TypeError, ValueError):
        return None
    return x if isinstance(x, mpf) else None


def to_mpf(x):
    """x as an mpf: a real number as as_real reads it, or a numeric str such
    as "0.1" or "1/3", which is rounded once, to nearest, at the working
    precision, as a Fraction is; InvalidParametersError for anything else."""
    try:
        v = mpmathify(x) if isinstance(x, str) else as_real(x)
    except (TypeError, ValueError, ZeroDivisionError):  # a str mpmath cannot read
        v = None
    if not isinstance(v, mpf):  # None, or the mpc of a str such as "1j"
        raise InvalidParametersError(
            f"need a real number or a numeric str; got {shown(x)}")
    return v
