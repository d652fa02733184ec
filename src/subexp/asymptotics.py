"""Log-space evaluation of the two asymptotic predictions for c_n.

Both formulas predict log c_n up to o(1):

  * the Khintchine-form estimate, evaluated at the solved tilting
    parameter delta_n, with the alternating correction series Delta;
  * the explicit formula, a closed form in n alone with the power
    exponent kappa and the constant Q (which has a subcritical and a
    critical branch).

Everything is assembled additively in log-space; exp is taken only when
rendering a decimal.  Each estimate carries a four-part breakdown whose
sum is exactly the returned log value.  The correction series and both
sums run on raw mpmath.libmp values, operation for operation as the mpf
expressions quoted beside them, so the results are bit for bit the same.
"""

import warnings
from dataclasses import dataclass
from typing import NamedTuple

from mpmath import mp, mpf
from mpmath.libmp import (
    fone,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_exp,
    mpf_log,
    mpf_lt,
    mpf_mul,
    mpf_mul_int,
    mpf_pow,
    mpf_sub,
)

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
    """(-1)^l D(-l) / l! for l = 1, 2, ..., the series' tau-free factors,
    as raw values."""
    coefficients = []
    fact = mpf(1)
    for l, d in enumerate(sd.d_neg, start=1):
        fact *= l
        coefficients.append(((-1) ** l * to_mpf(d) / fact)._mpf_)
    return tuple(coefficients)


def remainder_delta(sd: SpectralData, tau, tol=DELTA_SERIES_TOL) -> mpf:
    """Correction series Delta(tau) = sum_{l>=1} (-1)^l D(-l) tau^l / l!.

    The series is asymptotic, not convergent, so it is summed with a
    term-size stopping rule: stop before adding the first term smaller
    than tol*(1 + |partial sum|).  If the stored d_neg values run out
    before that happens, a TruncationWarning is emitted and the partial
    sum is returned as-is.
    """
    # the checks and the sum on raw values; each comment is the mpf expression
    prec, rounding = mp._prec_rounding
    tau = to_mpf(tau)
    t = tau._mpf_
    if not (mpf_lt(fzero, t) and mpf_lt(t, fone)):  # 0 < tau < 1
        raise DomainError(f"correction series needs 0 < tau < 1; got tau={tau}")
    tol = to_mpf(tol)
    eps = tol._mpf_
    if not mpf_lt(fzero, eps):  # tol > 0
        raise DomainError(f"tol must be positive; got {tol}")
    partial = fzero  # mpf(0)
    tau_pow = fone  # mpf(1)
    for c in sd.memo(_correction_coefficients):
        tau_pow = mpf_mul(tau_pow, t, prec, rounding)  # tau_pow *= tau
        term = mpf_mul(c, tau_pow, prec, rounding)  # term = c * tau_pow
        # abs(term) < tol * (1 + abs(partial))
        bound = mpf_add(mpf_abs(partial, prec, rounding), fone, prec, rounding)
        if mpf_lt(mpf_abs(term, prec, rounding), mpf_mul(eps, bound, prec, rounding)):
            return mp.make_mpf(partial)
        partial = mpf_add(partial, term, prec, rounding)  # partial += term
    warnings.warn(
        f"correction series truncated after {len(sd.d_neg)} terms without "
        f"meeting tol={tol} at tau={tau}",
        TruncationWarning,
    )
    return mp.make_mpf(partial)


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


_TERM_NAMES = ("prefactor_log", "power_log", "exponent_sum", "Q_or_delta")


def _raw_sum(values):
    """sum(values) of raw values whose first is already rounded to the
    working precision, so that 0 + it is itself; each further + is one
    mpf_add."""
    prec, rounding = mp._prec_rounding
    values = iter(values)
    total = next(values)
    for v in values:
        total = mpf_add(total, v, prec, rounding)
    return total


def _log_estimate(formula: str, n, terms: tuple) -> LogEstimate:
    """LogEstimate of raw terms (in _TERM_NAMES order), log_value their sum."""
    make = mp.make_mpf
    return LogEstimate(formula, int(n), make(_raw_sum(terms)),
                       dict(zip(_TERM_NAMES, map(make, terms))))


def _khintchine_constants(sd: SpectralData) -> tuple:
    """rho_r/2 + 1, the half log variance, -A0, h0 and (-rho, h) per pole
    as raw values: everything in the Khintchine estimate but n and delta_n."""
    poles = tuple(((-rho)._mpf_, h._mpf_) for rho, h in sd.poles)
    return ((sd.rho_r / 2 + 1)._mpf_, sd.memo(_half_log_variance)._mpf_,
            (-sd.A0)._mpf_, sd.h0._mpf_, poles)


class _ExplicitConstants(NamedTuple):
    prefactor: tuple
    kappa: tuple
    Q: tuple
    coefficients: tuple  # c_l of each term c_l n^e_l, l = r, 1, ..., r-1
    exponents: tuple  # e_l = rho_l/(rho_r+1)


def _explicit_constants(sd: SpectralData) -> _ExplicitConstants:
    """Everything in the explicit formula but n as raw values, built once
    per spectrum (SpectralData.memo); raises IneligibleSpectrumError through
    q_constant."""
    Q = q_constant(sd)
    rho_r, h_r = sd.poles[-1]
    rh = rho_r * h_r
    prefactor = -sd.memo(_half_log_variance) + (
        (rho_r + 2 - 2 * sd.A0) / (2 * (rho_r + 1))
    ) * mp.log(rh)
    powers = [((1 + rho_r) * h_r * rh ** (-rho_r / (rho_r + 1)), rho_r / (rho_r + 1))]
    for rho, h in sd.poles[:-1]:
        powers.append((h * rh ** (-rho / (rho_r + 1)), rho / (rho_r + 1)))
    return _ExplicitConstants(prefactor._mpf_, kappa(sd)._mpf_, Q._mpf_,
                              tuple(c._mpf_ for c, _ in powers),
                              tuple(e._mpf_ for _, e in powers))


def log_estimate_khintchine(sd: SpectralData, n: int) -> LogEstimate:
    """Khintchine-form estimate of log c_n at the solved delta_n.

    Assembled as

        (rho_r/2 + 1) log delta - (1/2) log(2 pi rho_r h_r (rho_r+1))
        - A_0 log delta + h_0 + sum_l h_l delta^(-rho_l)
        + Delta(delta) + n delta.

    The Gaussian prefactor carries the local variance rho_r h_r (rho_r+1)
    of the tilted distribution; with it, the estimate and the explicit
    formula agree to o(1) (their shared derivation fixes the constant).
    Requires a whole n >= 1, and delta_n < 1 for the correction series
    (that DomainError names n_min, the least n with lhs(1) < n: 6 for
    roots).  Everything but n and delta_n is built once per spectrum and
    working precision (SpectralData.memo), and the sum runs on raw values.
    """
    if n < 1 or n % 1:  # n % 1 is also true at inf and nan
        raise DomainError(f"need a whole n >= 1; got n={n}")
    delta = solve_delta(sd, n).delta
    d = delta._mpf_
    if not mpf_lt(d, fone):  # delta < 1
        n_min = max(1, int(mp.floor(khintchine_lhs(sd, 1))) + 1)
        raise DomainError(f"correction series needs 0 < tau < 1, so n >= {n_min}; "
                          f"got tau = delta_n = {delta} at n = {n}")
    prec, rounding = mp._prec_rounding
    half_rho_1, half_log_variance, neg_A0, h0, poles = sd.memo(_khintchine_constants)
    log_delta = mpf_log(d, prec, rounding)  # mp.log(delta)
    # (sd.rho_r / 2 + 1) * log_delta - sd.memo(_half_log_variance)
    prefactor = mpf_sub(mpf_mul(half_rho_1, log_delta, prec, rounding),
                        half_log_variance, prec, rounding)
    power = mpf_mul(neg_A0, log_delta, prec, rounding)  # -sd.A0 * log_delta
    # n * delta: one mpf_mul_int for an int n, as in mpf
    exponent = (mpf_mul_int(d, n, prec, rounding) if type(n) is int
                else (n * delta)._mpf_)
    for neg_rho, h in poles:
        # exponent += h * delta ** (-rho)
        t = mpf_mul(h, mpf_pow(d, neg_rho, prec, rounding), prec, rounding)
        exponent = mpf_add(exponent, t, prec, rounding)
    # sd.h0 + remainder_delta(sd, delta)
    q_or_delta = mpf_add(h0, remainder_delta(sd, delta)._mpf_, prec, rounding)
    return _log_estimate(KHINTCHINE, n, (prefactor, power, exponent, q_or_delta))


def _powers(x, exponents, prec, rounding) -> list:
    """[mpf_pow(x, e, prec, rounding) for e in exponents] for a raw x > 0,
    taking once the log that mpf_pow takes for each fractional e: one that
    is not a multiple of 1/2, so exp(e * log x) with the log at prec + 10."""
    out, log_x = [], None
    for e in exponents:
        if e[2] >= -1:  # e a multiple of 1/2: a power of x or of its root
            out.append(mpf_pow(x, e, prec, rounding))
        else:
            log_x = log_x or mpf_log(x, prec + 10, rounding)
            out.append(mpf_exp(mpf_mul(e, log_x), prec, rounding))
    return out


def log_estimate_explicit(sd: SpectralData, n: int) -> LogEstimate:
    """Explicit estimate of log c_n as a closed form in n.

        -(1/2) log(2 pi rho_r h_r (rho_r+1))
        + (rho_r + 2 - 2 A_0)/(2 (rho_r+1)) * log(rho_r h_r)
        + kappa log n + Q
        + (1+rho_r) h_r (rho_r h_r)^(-rho_r/(rho_r+1)) n^(rho_r/(rho_r+1))
        + sum_{l=1}^{r-1} h_l (rho_r h_r)^(-rho_l/(rho_r+1)) n^(rho_l/(rho_r+1))

    Needs a whole n >= 1 and a subcritical or critical spectrum
    (q_constant raises otherwise).  Everything but n is built once per
    spectrum and working precision and kept on sd (SpectralData.memo);
    the sum runs on raw values.
    """
    if n < 1 or n % 1:
        raise DomainError(f"need a whole n >= 1; got n={n}")
    c = sd.memo(_explicit_constants)
    prec, rounding = mp._prec_rounding
    nn = to_mpf(n)._mpf_
    power = mpf_mul(c.kappa, mpf_log(nn, prec, rounding), prec, rounding)  # kappa log n
    # sum(coef * nn**e for coef, e in powers)
    pows = _powers(nn, c.exponents, prec, rounding)
    exponent = _raw_sum(mpf_mul(coef, p, prec, rounding)
                        for coef, p in zip(c.coefficients, pows))
    return _log_estimate(EXPLICIT, n, (c.prefactor, power, exponent, c.Q))


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
