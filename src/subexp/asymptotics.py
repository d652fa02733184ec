"""Log-space evaluation of the two asymptotic predictions for c_n.

Both formulas predict log c_n up to o(1):

  * the Khintchine-form estimate, evaluated at the solved tilting
    parameter delta_n, with the alternating correction series Delta;
  * the explicit formula, a closed form in n alone with the power
    exponent kappa and the constant Q (which has a subcritical and a
    critical branch).

Everything is assembled additively in log-space; exp is taken only when
rendering a decimal.  Each estimate carries a four-part breakdown whose
sum is exactly the returned log value.
"""

import warnings
from dataclasses import dataclass
from typing import NamedTuple

from mpmath import mp, mpf

from .errors import DomainError, IneligibleSpectrumError, TruncationWarning
from .khintchine import khintchine_lhs, solve_delta
from .precision import to_mpf
from .spectrum import CRITICAL, INELIGIBLE, SpectralData, validate_spectrum

KHINTCHINE = "khintchine"
EXPLICIT = "explicit"

DELTA_SERIES_TOL = mpf("1e-12")


@dataclass(frozen=True)
class LogEstimate:
    """Natural log of a predicted c_n plus its additive breakdown.

    terms holds prefactor_log (Gaussian prefactor), power_log (the
    power-of-delta or power-of-n factor), exponent_sum (the growing
    exponential terms), and Q_or_delta (h_0 plus the Delta correction,
    or Q).  log_value is their exact sum.
    """

    formula: str
    n: int
    log_value: mpf
    terms: dict


def _correction_coefficients(sd: SpectralData) -> tuple:
    """(-1)^l D(-l) / l! for l = 1, 2, ..., the series' tau-free factors."""
    coefficients = []
    fact = mpf(1)
    for l, d in enumerate(sd.d_neg, start=1):
        fact *= l
        coefficients.append((-1) ** l * to_mpf(d) / fact)
    return tuple(coefficients)


def remainder_delta(sd: SpectralData, tau, tol=DELTA_SERIES_TOL) -> mpf:
    """Correction series Delta(tau) = sum_{l>=1} (-1)^l D(-l) tau^l / l!.

    The series is asymptotic, not convergent, so it is summed with a
    term-size stopping rule: stop before adding the first term smaller
    than tol*(1 + |partial sum|).  If the stored d_neg values run out
    before that happens, a TruncationWarning is emitted and the partial
    sum is returned as-is.
    """
    tau = to_mpf(tau)
    if not (0 < tau < 1):
        raise DomainError(f"correction series needs 0 < tau < 1; got tau={tau}")
    tol = to_mpf(tol)
    if not tol > 0:
        raise DomainError(f"tol must be positive; got {tol}")
    partial = mpf(0)
    tau_pow = mpf(1)
    for c in sd.memo(_correction_coefficients):
        tau_pow *= tau
        term = c * tau_pow
        if abs(term) < tol * (1 + abs(partial)):
            return partial
        partial += term
    warnings.warn(
        f"correction series truncated after {len(sd.d_neg)} terms without "
        f"meeting tol={tol} at tau={tau}",
        TruncationWarning,
    )
    return partial


def kappa(sd: SpectralData) -> mpf:
    """Power-of-n exponent of the explicit formula."""
    rho_r = sd.rho_r
    return (-rho_r / 2 - 1 + sd.A0) / (rho_r + 1)


def q_constant(sd: SpectralData) -> mpf:
    """Constant term Q of the explicit formula.

    Subcritical spectra (including r=1) take Q = h_0; exactly-critical
    ones (2 rho_{r-1} = rho_r within 1e-12) subtract the second pole's
    square contribution.  The full h_0 is used here; splits that move
    constant pieces between Q and the prefactor do not change the
    estimate's log value.
    """
    report = validate_spectrum(sd)
    if report.classification == INELIGIBLE:
        raise IneligibleSpectrumError(f"2*rho_{{r-1}} - rho_r = {report.gap} > 0: "
                                      "the explicit formula does not apply")
    if report.classification == CRITICAL:
        rho_r, h_r = sd.poles[-1]
        rho_p, h_p = sd.poles[-2]
        correction = (
            (rho_r * h_r) ** (-(2 * rho_p + 1) / (rho_r + 1))
            * (rho_p * h_p) ** 2
            / (2 * (rho_r + 1))
        )
        return sd.h0 - correction
    return sd.h0


def _half_log_variance(sd: SpectralData) -> mpf:
    """(1/2) log(2 pi rho_r h_r (rho_r+1)), the Gaussian prefactor's log."""
    rho_r, h_r = sd.poles[-1]
    return mp.log(2 * mp.pi * rho_r * h_r * (rho_r + 1)) / 2


class _ExplicitConstants(NamedTuple):
    prefactor: mpf
    kappa: mpf
    Q: mpf
    powers: tuple  # (coefficient, exponent) of each n^(rho_l/(rho_r+1)) term


def _explicit_constants(sd: SpectralData) -> _ExplicitConstants:
    """Everything in the explicit formula but n, built once per spectrum
    (SpectralData.memo); raises IneligibleSpectrumError through q_constant."""
    Q = q_constant(sd)
    rho_r, h_r = sd.poles[-1]
    rh = rho_r * h_r
    prefactor = -sd.memo(_half_log_variance) + (
        (rho_r + 2 - 2 * sd.A0) / (2 * (rho_r + 1))
    ) * mp.log(rh)
    powers = [((1 + rho_r) * h_r * rh ** (-rho_r / (rho_r + 1)), rho_r / (rho_r + 1))]
    for rho, h in sd.poles[:-1]:
        powers.append((h * rh ** (-rho / (rho_r + 1)), rho / (rho_r + 1)))
    return _ExplicitConstants(prefactor, kappa(sd), Q, tuple(powers))


def log_estimate_khintchine(sd: SpectralData, n: int) -> LogEstimate:
    """Khintchine-form estimate of log c_n at the solved delta_n.

    Assembled as

        (rho_r/2 + 1) log delta - (1/2) log(2 pi rho_r h_r (rho_r+1))
        - A_0 log delta + h_0 + sum_l h_l delta^(-rho_l)
        + Delta(delta) + n delta.

    The Gaussian prefactor carries the local variance rho_r h_r (rho_r+1)
    of the tilted distribution; with it, the estimate and the explicit
    formula agree to o(1) (their shared derivation fixes the constant).
    Requires a whole n, and delta_n < 1 for the correction series (that
    DomainError names n_min, the least n with lhs(1) < n: 6 for roots).
    """
    if n % 1:  # also true at inf and nan
        raise DomainError(f"need a whole n; got n={n}")
    delta = solve_delta(sd, n).delta
    if not delta < 1:
        n_min = max(1, int(mp.floor(khintchine_lhs(sd, 1))) + 1)
        raise DomainError(f"correction series needs 0 < tau < 1, so n >= {n_min}; "
                          f"got tau = delta_n = {delta} at n = {n}")
    log_delta = mp.log(delta)
    prefactor = (sd.rho_r / 2 + 1) * log_delta - sd.memo(_half_log_variance)
    power = -sd.A0 * log_delta
    exponent = n * delta
    for rho, h in sd.poles:
        exponent += h * delta ** (-rho)
    q_or_delta = sd.h0 + remainder_delta(sd, delta)
    terms = {
        "prefactor_log": prefactor,
        "power_log": power,
        "exponent_sum": exponent,
        "Q_or_delta": q_or_delta,
    }
    return LogEstimate(KHINTCHINE, int(n), sum(terms.values()), terms)


def log_estimate_explicit(sd: SpectralData, n: int) -> LogEstimate:
    """Explicit estimate of log c_n as a closed form in n.

        -(1/2) log(2 pi rho_r h_r (rho_r+1))
        + (rho_r + 2 - 2 A_0)/(2 (rho_r+1)) * log(rho_r h_r)
        + kappa log n + Q
        + (1+rho_r) h_r (rho_r h_r)^(-rho_r/(rho_r+1)) n^(rho_r/(rho_r+1))
        + sum_{l=1}^{r-1} h_l (rho_r h_r)^(-rho_l/(rho_r+1)) n^(rho_l/(rho_r+1))

    Needs a whole n >= 1 and a subcritical or critical spectrum
    (q_constant raises otherwise).  Everything but n is built once per
    spectrum and working precision and kept on sd (SpectralData.memo).
    """
    if n < 1 or n % 1:
        raise DomainError(f"need a whole n >= 1; got n={n}")
    c = sd.memo(_explicit_constants)
    nn = to_mpf(n)
    power = c.kappa * mp.log(nn)
    exponent = sum(coef * nn**e for coef, e in c.powers)
    terms = {
        "prefactor_log": c.prefactor,
        "power_log": power,
        "exponent_sum": exponent,
        "Q_or_delta": c.Q,
    }
    return LogEstimate(EXPLICIT, int(n), sum(terms.values()), terms)


def to_decimal(le: LogEstimate):
    """Render exp(log_value) as (mantissa in [1, 10), power of ten).

    The mantissa carries 12 significant digits; the pair is exact in the
    sense mantissa * 10^exponent10 = exp(log_value) to that precision.
    """
    log10_value = le.log_value / mp.log(10)
    exponent10 = int(mp.floor(log10_value))
    mantissa = mp.power(10, log10_value - exponent10)
    mantissa = mp.mpf(mp.nstr(mantissa, 12, strip_zeros=False))
    if mantissa >= 10:
        mantissa = mantissa / 10
        exponent10 += 1
    if mantissa < 1:
        mantissa = mantissa * 10
        exponent10 -= 1
    return mantissa, exponent10
