"""Exception and warning types shared across the package."""


class SubexpError(Exception):
    """Base class for all library errors."""


class DomainError(SubexpError, ValueError):
    """Argument outside the documented domain of an operation."""


class InvalidParametersError(SubexpError, ValueError):
    """Preset parameters violate a structural requirement (e.g. gcd)."""


class UndefinedWeightError(SubexpError):
    """A weight rule cannot produce b_j for a required index j."""


class CustomModelError(SubexpError):
    """Operation needs analytic data a custom model does not carry."""


class SpectrumSchemaError(SubexpError, ValueError):
    """Custom spectrum document is structurally malformed."""


class SpectrumDataError(SubexpError, ValueError):
    """Spectral data violates the ordering, positivity or finiteness contract."""


class NoBracketError(SubexpError, RuntimeError):
    """Root bracketing failed within the allowed search interval."""


class NonConvergenceError(SubexpError, RuntimeError):
    """Iteration budget exhausted before reaching the residual tolerance."""


class IneligibleSpectrumError(SubexpError):
    """The two largest poles violate 2*rho_{r-1} - rho_r <= 0."""


class InexactDivisionError(SubexpError, ArithmeticError):
    """Exact counting of an integer-coefficient model met an inexact division."""


class TruncationWarning(UserWarning):
    """A truncated series ran out of terms before meeting its tolerance."""
