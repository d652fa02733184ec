"""Log-space evaluation of the two asymptotic predictions for c_n.

Both formulas predict log c_n up to o(1):

  * the Khintchine-form estimate, evaluated at the solved tilting
    parameter delta_n, with the alternating correction series Delta;
  * the explicit formula, a closed form in n alone with the power
    exponent kappa and the constant Q (which has a subcritical and a
    critical branch).

Everything is assembled additively in log-space; exp is taken only when
rendering a decimal.  Each estimate carries a four-part breakdown whose
sum is exactly the returned log value.  Everything but n (and delta_n) is
one record per estimate, built once per spectrum and working precision
(SpectralData.memo); the explicit formula's checks eligibility, then reads
the Khintchine record.  The records, the series and both sums run on raw
mpmath.libmp values, operation for operation as the mpf expressions quoted
beside them, so results are bit for bit equal; the series' stop test reads
binary exponents where they settle it.
"""

import warnings
from dataclasses import dataclass

from mpmath import mp, mpf
from mpmath.libmp import (
    fone,
    from_int,
    ftwo,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_exp,
    mpf_log,
    mpf_lt,
    mpf_mul,
    mpf_mul_int,
    mpf_neg,
    mpf_pi,
    mpf_pow,
    mpf_pow_int,
    mpf_sub,
)

from .errors import DomainError, IneligibleSpectrumError, TruncationWarning
from .khintchine import khintchine_lhs, solve_delta
from .precision import as_real, shown
from .spectrum import CRITICAL, INELIGIBLE, SpectralData, validate_spectrum

KHINTCHINE = "khintchine"
EXPLICIT = "explicit"

DELTA_SERIES_TOL = mpf("1e-12")
# The series' stop test is decided from binary exponents alone when its two
# sides lie at least this many binades apart.  A finite nonzero raw value
# (s, man, exp, bc) lies in [2^(E-1), 2^E) for E = exp+bc, and no rounding
# passes a power of 2, so a factor of 4 covers every rounding in the bound.
MARGIN_BITS = 2


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


def _term_below(term, partial, eps, prec, rounding) -> bool:
    """abs(term) < eps * (1 + abs(partial)) for raw values at the working
    precision, partial finite.  The bound rounds into [2^(e-2), 2^(e+1)] for
    e = E(eps) + max(1, E(partial)); it is formed only when E(term) is less
    than MARGIN_BITS from e, or at a zero mantissa (a zero partial, whose E
    is 0, aside)."""
    if term[1] and eps[1] and (partial[1] or partial == fzero):
        d = term[2] + term[3] - eps[2] - eps[3] - max(1, partial[2] + partial[3])
        if d <= -MARGIN_BITS:
            return True
        if d >= MARGIN_BITS:
            return False
    bound = mpf_add(mpf_abs(partial), fone, prec, rounding)
    return mpf_lt(mpf_abs(term), mpf_mul(eps, bound, prec, rounding))


def remainder_delta(sd: SpectralData, tau) -> mpf:
    """Correction series Delta(tau) = sum_{l>=1} (-1)^l D(-l) tau^l / l!.

    The series is asymptotic, not convergent, so it is summed with a
    term-size stopping rule: stop before adding the first term smaller
    than DELTA_SERIES_TOL*(1 + |partial sum|).  If the stored d_neg values
    run out before that happens, a TruncationWarning is emitted and the
    partial sum is returned as-is.
    """
    # the checks and the sum on raw values; each comment is the mpf expression
    prec, rounding = mp._prec_rounding
    v = as_real(tau)
    if v is None:
        raise DomainError(f"correction series needs a number tau; got {shown(tau)}")
    tau, t = v, v._mpf_
    if not (mpf_lt(fzero, t) and mpf_lt(t, fone)):  # 0 < tau < 1
        raise DomainError(f"correction series needs 0 < tau < 1; got tau={tau}")
    eps = DELTA_SERIES_TOL._mpf_
    partial = fzero  # mpf(0)
    tau_pow = fone  # mpf(1)
    for c in sd.memo(_khintchine_constants)[5]:
        if c == fzero:  # term = 0, below any bound: partial stays finite
            return mp.make_mpf(partial)
        tau_pow = mpf_mul(tau_pow, t, prec, rounding)  # tau_pow *= tau
        term = mpf_mul(c, tau_pow, prec, rounding)  # term = c * tau_pow
        # abs(term) < DELTA_SERIES_TOL * (1 + abs(partial))
        if _term_below(term, partial, eps, prec, rounding):
            return mp.make_mpf(partial)
        partial = mpf_add(partial, term, prec, rounding)  # partial += term
    warnings.warn(
        f"correction series truncated after {len(sd.d_neg)} terms without "
        f"meeting tol={DELTA_SERIES_TOL} at tau={tau}",
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
    estimate's log value.  Ineligible spectra raise.
    """
    return mp.make_mpf(sd.memo(_explicit_constants)[2])


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


def _whole_n(n) -> int:
    """n as an int; DomainError unless n is a whole real number >= 1."""
    # an int skips as_real; n % 1 is true at inf, nan
    if (type(n) is not int and as_real(n) is None) or n < 1 or n % 1:
        raise DomainError(f"need a whole n >= 1; got n={shown(n)}")
    return int(n)  # exact for a whole n


def _log_estimate(formula: str, n, terms: tuple) -> LogEstimate:
    """LogEstimate of raw terms (in _TERM_NAMES order), log_value their sum."""
    make = mp.make_mpf
    return LogEstimate(formula, n, make(_raw_sum(terms)),
                       dict(zip(_TERM_NAMES, map(make, terms))))


def _khintchine_constants(sd: SpectralData) -> tuple:
    """Everything in the Khintchine estimate but n and delta_n, as raw values:
    rho_r/2 + 1, the half log variance (1/2) log(2 pi rho_r h_r (rho_r+1)),
    -A0, h0, (-rho, h) per pole and the correction series' tau-free factors
    (-1)^l D(-l) / l!, l = 1, 2, ...; then rho_r + 1 and rho_r h_r, which
    the explicit formula reads too."""
    prec, rounding = mp._prec_rounding
    rho_r, h_r = sd.rho_r._mpf_, sd.poles[-1].h._mpf_
    half_rho = mpf_div(rho_r, ftwo, prec, rounding)  # sd.rho_r / 2 + 1
    poles = tuple((mpf_neg(rho._mpf_, prec, rounding), h._mpf_) for rho, h in sd.poles)
    rho_1 = mpf_add(rho_r, fone, prec, rounding)  # rho_r + 1
    v = mpf_mul_int(mpf_pi(prec, rounding), 2, prec, rounding)  # 2 * mp.pi
    for x in (rho_r, h_r, rho_1):  # * rho_r * h_r * (rho_r + 1)
        v = mpf_mul(v, x, prec, rounding)
    half_log = mpf_div(mpf_log(v, prec, rounding), ftwo, prec, rounding)  # mp.log(v) / 2
    corrections, fact = [], fone  # fact = mpf(1)
    for l, d in enumerate(sd.d_neg, start=1):
        fact = mpf_mul_int(fact, l, prec, rounding)  # fact *= l
        c = mpf_mul_int(d._mpf_, (-1) ** l, prec, rounding)  # (-1) ** l * d
        corrections.append(mpf_div(c, fact, prec, rounding))  # c / fact
    return (mpf_add(half_rho, fone, prec, rounding), half_log,
            mpf_neg(sd.A0._mpf_, prec, rounding), sd.h0._mpf_, poles,  # -sd.A0
            tuple(corrections), rho_1, mpf_mul(rho_r, h_r, prec, rounding))


def _explicit_constants(sd: SpectralData) -> tuple:
    """The explicit formula but n as raw values: the prefactor, kappa, Q, and
    the coefficients c_l and exponents e_l = rho_l/(rho_r+1) of its terms
    c_l n^e_l, l = r, 1, ..., r-1.  Raises IneligibleSpectrumError when the
    formula does not apply, before it reads the Khintchine record."""
    classification = validate_spectrum(sd)
    if classification == INELIGIBLE:
        raise IneligibleSpectrumError(f"2*rho_{{r-1}} - rho_r = {sd.gap} > 0: "
                                      "the explicit formula does not apply")
    prec, rounding = mp._prec_rounding
    _, half_log_variance, *_, rho_1, rh = sd.memo(_khintchine_constants)
    rho_r, A0 = sd.rho_r._mpf_, sd.A0._mpf_
    two_rho_1 = mpf_mul_int(rho_1, 2, prec, rounding)  # 2 * (rho_r + 1)
    # -half_log_variance + (rho_r + 2 - 2 * sd.A0) / two_rho_1 * mp.log(rh)
    t = mpf_sub(mpf_add(rho_r, ftwo, prec, rounding), mpf_mul_int(A0, 2, prec, rounding),
                prec, rounding)
    t = mpf_mul(mpf_div(t, two_rho_1, prec, rounding), mpf_log(rh, prec, rounding),
                prec, rounding)
    prefactor = mpf_add(mpf_neg(half_log_variance, prec, rounding), t, prec, rounding)
    Q = sd.h0._mpf_
    if classification == CRITICAL:
        # sd.h0 - rh ** (-(2 * rho_p + 1) / (rho_r + 1)) * (rho_p * h_p)**2 / two_rho_1
        rho_p, h_p = (x._mpf_ for x in sd.poles[-2])
        t = mpf_add(mpf_mul_int(rho_p, 2, prec, rounding), fone, prec, rounding)
        t = mpf_pow(rh, mpf_div(mpf_neg(t, prec, rounding), rho_1, prec, rounding),
                    prec, rounding)
        u = mpf_pow_int(mpf_mul(rho_p, h_p, prec, rounding), 2, prec, rounding)
        t = mpf_div(mpf_mul(t, u, prec, rounding), two_rho_1, prec, rounding)
        Q = mpf_sub(Q, t, prec, rounding)
    # c_l = (1 + rho_r) * h_r or h_l, times rh ** (-rho_l / (rho_r + 1)) on one log
    rhos = [rho_r] + [rho._mpf_ for rho, _ in sd.poles[:-1]]
    negs = [mpf_div(mpf_neg(rho, prec, rounding), rho_1, prec, rounding) for rho in rhos]
    hs = [mpf_mul(rho_1, sd.poles[-1].h._mpf_, prec, rounding)]
    hs += [h._mpf_ for _, h in sd.poles[:-1]]
    terms = zip(hs, _powers(rh, negs, prec, rounding))
    return (prefactor, kappa(sd)._mpf_, Q,
            tuple(mpf_mul(h, p, prec, rounding) for h, p in terms),
            tuple(mpf_div(rho, rho_1, prec, rounding) for rho in rhos))


def log_estimate_khintchine(sd: SpectralData, n: int) -> LogEstimate:
    """Khintchine-form estimate of log c_n at the solved delta_n.

    Assembled as

        (rho_r/2 + 1) log delta - (1/2) log(2 pi rho_r h_r (rho_r+1))
        - A_0 log delta + h_0 + sum_l h_l delta^(-rho_l)
        + Delta(delta) + n delta.

    The Gaussian prefactor carries the local variance rho_r h_r (rho_r+1)
    of the tilted distribution; with it, the estimate and the explicit
    formula agree to o(1) (their shared derivation fixes the constant).
    Requires a whole n >= 1, and delta_n < 1 for the correction series (that
    DomainError names n_min, the least n with lhs(1) < n: 6 for roots).
    """
    n = _whole_n(n)
    delta = solve_delta(sd, n).delta
    d = delta._mpf_
    if not mpf_lt(d, fone):  # delta < 1
        n_min = max(1, int(mp.floor(khintchine_lhs(sd, 1))) + 1)
        raise DomainError(f"correction series needs 0 < tau < 1, so n >= {n_min}; "
                          f"got tau = delta_n = {delta} at n = {n}")
    prec, rounding = mp._prec_rounding
    half_rho_1, half_log_variance, neg_A0, h0, poles, *_ = sd.memo(_khintchine_constants)
    log_delta = mpf_log(d, prec, rounding)  # mp.log(delta)
    # (sd.rho_r / 2 + 1) * log_delta - the half log variance
    prefactor = mpf_sub(mpf_mul(half_rho_1, log_delta, prec, rounding),
                        half_log_variance, prec, rounding)
    power = mpf_mul(neg_A0, log_delta, prec, rounding)  # -sd.A0 * log_delta
    exponent = mpf_mul_int(d, n, prec, rounding)  # n * delta
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
    (IneligibleSpectrumError otherwise).
    """
    n = _whole_n(n)
    prefactor, kappa, Q, coefficients, exponents = sd.memo(_explicit_constants)
    prec, rounding = mp._prec_rounding
    nn = from_int(n)  # exact
    power = mpf_mul(kappa, mpf_log(nn, prec, rounding), prec, rounding)  # kappa log n
    # sum(coef * nn**e for coef, e in powers)
    pows = _powers(nn, exponents, prec, rounding)
    exponent = _raw_sum(mpf_mul(coef, p, prec, rounding)
                        for coef, p in zip(coefficients, pows))
    return _log_estimate(EXPLICIT, n, (prefactor, power, exponent, Q))


def to_decimal(le: LogEstimate):
    """Render exp(log_value) as (mantissa in [1, 10), power of ten).

    The mantissa carries 12 significant digits; the pair is exact in the
    sense mantissa * 10^exponent10 = exp(log_value) to that precision.
    Its error, about mantissa |log_value| 2^(1-prec), must stay within half
    a unit of the 12th digit: DomainError, naming the digits needed, if not.
    """
    log10_value = le.log_value / mp.log(10)
    exponent10 = int(mp.floor(log10_value))
    mantissa = mp.power(10, log10_value - exponent10)
    excess = mantissa * abs(le.log_value) * mp.ldexp(1, 1 - mp.prec) / mpf("5e-12")
    if excess > 1:
        raise DomainError(f"12 digits of exp({shown(le.log_value)}) need a precision "
                          f"of {mp.dps + 1 + int(mp.ceil(mp.log10(excess)))} digits")
    mantissa = mp.mpf(mp.nstr(mantissa, 12, strip_zeros=False))
    if mantissa >= 10:  # 10^t, t in [0, 1), rounds up to 10 at 12 digits
        mantissa = mantissa / 10
        exponent10 += 1
    return mantissa, exponent10
