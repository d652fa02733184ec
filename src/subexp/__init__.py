"""Exact and asymptotic enumeration of subexponentially growing
multiplicative structures (weighted integer partitions).

The pipeline: a ModelSpec fixes the generating function
f(z) = prod_j S(a_j z^j)^{b_j}; its log-coefficients Lambda_k give exact
counts c_n by recurrence; the spectral data of the associated Dirichlet
series gives two asymptotic log-estimates of c_n, tied together by the
solution of the Khintchine equation.
"""

from .asymptotics import (
    LogEstimate,
    kappa,
    log_estimate_explicit,
    log_estimate_khintchine,
    q_constant,
    remainder_delta,
    to_decimal,
)
from .errors import (
    CustomModelError,
    DomainError,
    IneligibleSpectrumError,
    InvalidParametersError,
    NoBracketError,
    NonConvergenceError,
    PoleError,
    SpectrumDataError,
    SpectrumSchemaError,
    SubexpError,
    TruncationWarning,
    UndefinedWeightError,
    UnsupportedModelError,
    UnsupportedPointError,
)
from .exact import ExactSeries, exact_coefficients, pentagonal_oracle, product_dp
from .khintchine import (
    KhintchineSolution,
    initial_guess,
    khintchine_lhs,
    solve_delta,
)
from .model import (
    EXPONENTIAL,
    MULTISET,
    SELECTION,
    BaseFunction,
    LambdaSeries,
    ModelSpec,
    custom_model,
    lambda_coeffs,
    llt_condition_report,
    make_preset,
)
from .precision import (
    extra_precision,
    set_working_precision,
    to_mpf,
    working_precision,
)
from .spectrum import (
    Pole,
    SpectralData,
    ValidationReport,
    derive_spectrum,
    load_custom_spectrum,
    validate_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "BaseFunction",
    "CustomModelError",
    "DomainError",
    "EXPONENTIAL",
    "ExactSeries",
    "IneligibleSpectrumError",
    "InvalidParametersError",
    "KhintchineSolution",
    "LambdaSeries",
    "LogEstimate",
    "MULTISET",
    "ModelSpec",
    "NoBracketError",
    "NonConvergenceError",
    "Pole",
    "PoleError",
    "SELECTION",
    "SpectralData",
    "SpectrumDataError",
    "SpectrumSchemaError",
    "SubexpError",
    "TruncationWarning",
    "UndefinedWeightError",
    "UnsupportedModelError",
    "UnsupportedPointError",
    "ValidationReport",
    "custom_model",
    "derive_spectrum",
    "exact_coefficients",
    "extra_precision",
    "initial_guess",
    "kappa",
    "khintchine_lhs",
    "lambda_coeffs",
    "llt_condition_report",
    "load_custom_spectrum",
    "log_estimate_explicit",
    "log_estimate_khintchine",
    "make_preset",
    "pentagonal_oracle",
    "product_dp",
    "q_constant",
    "remainder_delta",
    "set_working_precision",
    "solve_delta",
    "to_decimal",
    "to_mpf",
    "validate_spectrum",
    "working_precision",
]
