"""Independent oracle implementations used by the test suite.

Nothing here imports the package under test.  Each oracle reimplements
a quantity by a deliberately different route (direct summation, naive
DP, plain bisection) so that agreement with the library is meaningful.
The mpf references at the end are the one exception: they are the
estimate pair's formulas written as plain mpf expressions, which the
library evaluates on raw libmp values in the same order.
"""

import math
from fractions import Fraction
from functools import lru_cache
from math import comb

from mpmath import mp, mpf, mpmathify

# parse the frozen constants below at full precision regardless of
# import order (mpmath still defaults to 15 digits at this point)
if mp.dps < 38:
    mp.dps = 38


# frozen reference values, produced by the oracles in this module (plus
# closed forms) before the library existed; regression anchors
LHS_STANDARD_DELTA1 = mpf("1.1866007335148931031390818333126918559")
DELTA_STANDARD_100 = mpf("0.12580504750128083263508693621838052319")
DELTA_ROOTS_10 = mpf("0.83100709607547903709588097330558087836")
LOG_P100 = mpf("19.065526423927378826983128936106027133")
KH_STANDARD_100 = mpf("19.071181313774868469302578409437270347")
EX_STANDARD_100 = mpf("19.110225911795245078312657422673783826")
ROOTS_H0 = mpf("-1.2497808206055746002081690568911789254")


def zeta_direct(s, terms=100):
    """zeta(s) for real s > 1 by direct summation with an integral tail.

    Euler-Maclaurin truncation through the B_4 term; the first omitted
    term is ~ s^5 K^(-s-5)/30240, below 1e-15 relative for K=100 and
    the small s used in tests.
    """
    s = mpmathify(s)
    K = terms
    total = mp.fsum(mpf(k) ** (-s) for k in range(1, K + 1))
    total += mpf(K) ** (1 - s) / (s - 1)
    total -= mpf(K) ** (-s) / 2
    total += s * mpf(K) ** (-s - 1) / 12
    total -= s * (s + 1) * (s + 2) * mpf(K) ** (-s - 3) / 720
    return total


def zeta_neg_bernoulli(n, q=1):
    """zeta(-n, q) = -B_{n+1}(q)/(n+1) for integers n >= 0, 0 < q <= 1."""
    return -mp.bernpoly(n + 1, mpmathify(q)) / (n + 1)


@lru_cache(maxsize=None)
def bernoulli_number(n):
    """B_n as a Fraction (B_1 = -1/2), from sum_{k<=m} C(m+1, k) B_k = 0."""
    if n == 0:
        return Fraction(1)
    return -sum(comb(n + 1, k) * bernoulli_number(k) for k in range(n)) / (n + 1)


def zeta_neg_exact(n, q=Fraction(1)):
    """zeta(-n, q) = -B_{n+1}(q)/(n+1) as a Fraction, for integers n >= 0 and
    rational 0 < q <= 1, with B_N(x) = sum C(N, k) B_k x^(N-k)."""
    N = n + 1
    return -sum(comb(N, k) * bernoulli_number(k) * q ** (N - k)
                for k in range(N + 1)) / N


def zeta_fd_deriv(s, dps_boost=25, h=mpf("1e-12"), q=1):
    """d/ds zeta(s, q) by central difference on mpmath's zeta at raised precision.

    Independent of the closed forms (no Glaisher constant, no log(2 pi))
    and of mpmath's own derivative; accuracy ~h^2 once the working
    precision absorbs the cancellation.
    """
    old = mp.dps
    try:
        mp.dps = old + dps_boost
        s, q = mpmathify(s), mpmathify(q)
        val = (mp.zeta(s + h, q) - mp.zeta(s - h, q)) / (2 * h)
    finally:
        mp.dps = old
    return +val


def preset_spectrum_closed_form(kind, L, a=1, b=1):
    """(poles, A0, h0, d_neg) of a preset from its hand-derived factorisation.

    D(s) = zeta(s+1)*D_b(s) with, per preset,

        standard        D_b(s) = zeta(s)
        roots           D_b(s) = 2 zeta(s-1) + zeta(s)
        congruent(a,b)  D_b(s) = a^(-s) zeta(s, q),  q = ((b-1) mod a + 1)/a

    so the poles are (1, zeta(2)), (2, 2 zeta(3)) and (1, zeta(2)/a),
    h0 = D_b'(0) comes from zeta'(0) = -log(2 pi)/2, zeta'(-1) = 1/12 -
    log A and Lerch's zeta'(0, q) = log Gamma(q) - log(2 pi)/2, and
    d_neg[l-1] = zeta(1-l) D_b(-l).
    """
    z = mp.zeta
    zeta_deriv0 = -mp.log(2 * mp.pi) / 2
    if kind == "standard":
        poles = [(1, z(2))]
        A0 = z(0)
        h0 = zeta_deriv0
        db = z
    elif kind == "roots":
        poles = [(1, z(2)), (2, 2 * z(3))]
        A0 = 2 * z(-1) + z(0)
        h0 = 2 * (mpf(1) / 12 - mp.log(mp.glaisher)) + zeta_deriv0
        db = lambda s: 2 * z(s - 1) + z(s)
    else:
        q = mpf((b - 1) % a + 1) / a
        poles = [(1, z(2) / a)]
        A0 = z(0, q)
        h0 = -mp.log(a) * A0 + mp.loggamma(q) + zeta_deriv0
        db = lambda s: mpf(a) ** (-s) * z(s, q)
    d_neg = [z(1 - l) * db(-l) for l in range(1, L + 1)]
    return poles, A0, h0, d_neg


def preset_exact_constants(kind, L, a=1, b=1):
    """(A0, [D(-1), ..., D(-L)]) of a preset as exact Fractions, from the
    factorisation of preset_spectrum_closed_form and zeta_neg_exact."""
    z = zeta_neg_exact
    if kind == "standard":
        db = lambda l: z(l)
    elif kind == "roots":
        db = lambda l: 2 * z(l + 1) + z(l)
    else:
        q = Fraction((b - 1) % a + 1, a)
        db = lambda l: a**l * z(l, q)
    return db(0), [z(l - 1) * db(l) for l in range(1, L + 1)]


def bisect_root(f, lo, hi, iters=140):
    """Plain bisection; assumes one sign change in [lo, hi]."""
    flo = f(lo)
    fhi = f(hi)
    assert flo * fhi < 0, "oracle bracket does not straddle the root"
    for _ in range(iters):
        mid = (lo + hi) / 2
        fmid = f(mid)
        if fmid == 0:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return (lo + hi) / 2


def tilt_equation_lhs(poles, A0, d1, delta):
    """Literal substitution into the tilting equation's left side."""
    total = mpmathify(d1) + mpmathify(A0) / delta
    for rho, h in poles:
        total += mpmathify(h) * mpmathify(rho) * delta ** (-mpmathify(rho) - 1)
    return total


def bisect_delta(poles, A0, d1, n, lo=mpf("1e-6"), hi=mpf("10")):
    """Solve the tilting equation by bisection alone."""
    f = lambda d: tilt_equation_lhs(poles, A0, d1, d) - n
    return bisect_root(f, lo, hi)


def initial_guess(sd, n):
    """Two-term asymptotic expansion of z_n = 1/delta_n, a cross-check on
    the solved root, for any sd with poles (rho, h) sorted by rho.

    The leading term z0 = (n/(rho_r h_r))^(1/(rho_r+1)) balances the top
    pole alone.  For r >= 2, balancing the two largest terms,
    rho_r h_r z^(rho_r+1) + rho_{r-1} h_{r-1} z^(rho_{r-1}+1) = n, at
    z = z0 (1 + eps) gives eps = -rho_{r-1} h_{r-1} z0^(rho_{r-1}+1) /
    ((rho_r+1) n) to first order: the second pole adds to the left side,
    so z shrinks.  Hence z = z0 - w with w = M (rho_r h_r)^(-e) n^e,
    e = (rho_{r-1}-rho_r+1)/(rho_r+1) and
    M = rho_{r-1} h_{r-1} / ((rho_r+1) rho_r h_r); z0 where z0 - w <= 0.
    """
    n = mpmathify(n)
    rho_r, h_r = sd.poles[-1]
    z0 = (n / (rho_r * h_r)) ** (1 / (rho_r + 1))
    if len(sd.poles) == 1:
        return z0
    rho_p, h_p = sd.poles[-2]
    e = (rho_p - rho_r + 1) / (rho_r + 1)
    M = rho_p * h_p / ((rho_r + 1) * rho_r * h_r)
    z = z0 - M * (rho_r * h_r) ** (-e) * n**e
    return z if z > 0 else z0


def hurwitz_zeta(s, q):
    """zeta(s, q), numerically, by mpmath."""
    return mp.zeta(s, q)


def divisor_k_lambda(weight, k):
    """k*Lambda_k = sum over divisors j of k of j*b_j, enumerated naively."""
    total = Fraction(0)
    for j in range(1, k + 1):
        if k % j == 0:
            total += j * Fraction(weight(j))
    return total


def log_coefficients(b, g, N):
    """Lambda_1..Lambda_N of prod_j S(z^j)^(b_j) as Fractions, by the double
    sum Lambda_k = sum over j*m = k of b(j)*g(m), with g(m) the Taylor
    coefficients of log S."""
    lam = [Fraction(0)] * (N + 1)
    for j in range(1, N + 1):
        for m in range(1, N // j + 1):
            lam[j * m] += Fraction(b(j)) * Fraction(g(m))
    return lam[1:]


# Taylor coefficients of log S for S = 1/(1-w), 1+w and e^w
MULTISET_G = lambda m: Fraction(1, m)
SELECTION_G = lambda m: Fraction((-1) ** (m + 1), m)
EXPONENTIAL_G = lambda m: Fraction(m == 1)


def naive_recurrence(k_lambda, N):
    """c_0..c_N from n c_n = sum_k k_lambda[k-1] c_(n-k), term by term.

    Integer k*Lambda_k only; None at the first division that leaves a
    remainder.  Quadratic; the reference for the convolution kernel in
    subexp.exact.
    """
    c = [0] * (N + 1)
    c[0] = 1
    for n in range(1, N + 1):
        total = 0
        for k in range(1, n + 1):
            kl = k_lambda[k - 1]
            if kl:
                total += kl * c[n - k]
        q, rem = divmod(total, n)
        if rem:
            return None
        c[n] = q
    return c


def distinct_dp(N):
    """Partition counts into distinct parts by 0/1-knapsack DP."""
    c = [0] * (N + 1)
    c[0] = 1
    for j in range(1, N + 1):
        for i in range(N, j - 1, -1):
            c[i] += c[i - j]
    return c


def partitions_brute(n):
    """p(n) by plain recursive enumeration with memo; small n only."""
    memo = {}

    def count(remaining, largest):
        if remaining == 0:
            return 1
        if largest == 0:
            return 0
        key = (remaining, largest)
        if key not in memo:
            memo[key] = sum(
                count(remaining - part, min(remaining - part, part))
                for part in range(1, min(remaining, largest) + 1)
            )
        return memo[key]

    return count(n, n)


def hardy_ramanujan_log(n):
    """log of the leading Hardy-Ramanujan term, p(n) ~ e^(pi sqrt(2n/3))/(4n sqrt 3)."""
    n = mpmathify(n)
    return -mp.log(4 * mp.sqrt(3)) - mp.log(n) + mp.pi * mp.sqrt(2 * n / 3)


def log_f_direct(b, tau):
    """log f(e^-tau) = sum_j b_j * (-log(1 - e^(-j tau))) for a multiset model,
    summed directly at the working precision for a weight callable b with
    b_j = O(j^2).  It stops at the first J with J*tau past (prec + 64)*log(2)
    + 3*log(J), where the rest of the sum, at most sum_(j>J) b_j
    e^(-j tau)/(1 - e^(-tau)), is below 2^-prec."""
    tau = mpmathify(tau)
    cutoff = (mp.prec + 64) * math.log(2)
    J = 1
    while J * tau < cutoff + 3 * math.log(J):
        J += 1
    q = mp.exp(-tau)
    total, qj = mpf(0), q  # qj = e^(-j tau), one rounding per step
    for j in range(1, J):
        bj = b(j)
        if bj:
            total -= mpmathify(bj) * mp.log(1 - qj)
        qj *= q
    return total


def delta_direct(sd, b, tau):
    """The true correction Delta(tau) of a SpectralData-like object sd (poles,
    A0, h0) for the weights b: the direct sum minus the Mellin expansion's
    other parts, sum_l h_l tau^(-rho_l) - A0 log tau + h0."""
    tau = mpmathify(tau)
    main = mp.fsum(h * tau ** (-rho) for rho, h in sd.poles)
    return log_f_direct(b, tau) - (main - sd.A0 * mp.log(tau) + sd.h0)


# The estimate pair as mpf expressions.  The library evaluates these
# formulas on raw libmp values, with the same operations in the same order;
# these literal mpf versions are what its results must equal bit for bit.
# Each takes a SpectralData-like object (poles, A0, h0, d_neg); where the
# library raises, these raise ValueError.

def _as_finite_float(v):
    f = float(v)
    if not math.isfinite(f) or (f == 0 and v != 0):
        raise OverflowError(f"{v} is out of float range")
    return f


def float_root_mpf(sd, n, bracket, max_iter=16, step_tol=1e-12):
    """The float-phase Newton root in log delta from the leading term, or
    None where floats cannot reach it."""
    try:
        nf, a0, d1 = _as_finite_float(n), _as_finite_float(sd.A0), _as_finite_float(sd.d_neg[0])
        poles = [(_as_finite_float(rho), _as_finite_float(h)) for rho, h in sd.poles]
        rho_r, h_r = poles[-1]
        x = (rho_r * h_r / nf) ** (1 / (rho_r + 1))
        lo, hi = (float(b) for b in bracket)
        for _ in range(max_iter):
            if not lo < x < hi:
                return None
            lhs = d1 + a0 / x
            slope = -a0 / x
            for rho, h in poles:
                t = h * rho * x ** (-rho - 1)
                if t == 0:
                    return None
                lhs += t
                slope -= (rho + 1) * t
            if not (lhs > 0 and math.isfinite(lhs) and math.isfinite(slope)):
                return None
            step = -math.log(lhs / nf) * lhs / slope
            x *= math.exp(step)
            if abs(step) <= step_tol:
                return x if lo < x < hi else None
    except (OverflowError, ZeroDivisionError, ValueError):
        pass
    return None


def lhs_and_slope_mpf(sd, x):
    """lhs(x) and x*lhs'(x) of the tilting equation."""
    a0 = sd.A0 / x
    lhs = sd.d_neg[0] + a0
    slope = -a0
    for c, e, k in [(h * rho, -rho - 1, rho + 1) for rho, h in sd.poles]:
        t = c * x**e
        lhs += t
        slope -= k * t
    return lhs, slope


def term_size_mpf(sd, x):
    """|D(-1)| + |A0/x| + sum |h rho x^(-rho-1)|: the size of lhs's terms."""
    terms = [h * rho * x ** (-rho - 1) for rho, h in sd.poles]
    return mp.fsum([sd.d_neg[0], sd.A0 / x] + terms, absolute=True)


def solve_delta_mpf(sd, n, bracket, max_iter=200):
    """(delta, residual, (lo, hi), newton steps, bisection steps): the float
    root polished by safeguarded Newton in log delta, whose steps s below
    2^-26 become delta*(1 + s + k s^2), k = rho_r/2 + 1.  One pole at
    rho = 1 seeds instead from the positive root of the quadratic
    h/delta^2 + A0/delta = n - D(-1), in the form whose sum does not cancel.
    Every path stops once |step| <= sqrt(eps) and |F| <= 1e-10*max(n, S),
    S the summed sizes of lhs's terms, formed only when |F| > 1e-10*n."""
    n = mpmathify(n)
    if not (n >= 1 and n > sd.d_neg[0]):
        raise ValueError(f"n = {n} is outside the domain")
    prec = mp.prec
    with mp.workprec(prec):
        rel, step_tol = mpf("1e-10"), mp.sqrt(mp.eps)
    tol = rel * n
    lo, hi = bracket
    if len(sd.poles) == 1 and sd.poles[0][0] == 1:
        h, A0 = sd.poles[0][1], sd.A0
        m = n - sd.d_neg[0]
        S = mp.sqrt(A0 * A0 + 4 * h * m)
        x = (A0 + S) / (2 * m) if A0 >= 0 else 2 * h / (S - A0)
    else:
        x = float_root_mpf(sd, n, bracket)
        if x is None:
            rho_r, h_r = sd.poles[-1]
            x = (rho_r * h_r / n) ** (1 / (rho_r + 1))
        x = mpf(x)
    if not lo < x < hi:
        raise ValueError(f"seed delta = {x} is outside the bracket")
    k = sd.poles[-1][0] / 2 + 1
    newtons = 0
    bisections = 0
    for _ in range(max_iter + 1):
        lhs, slope = lhs_and_slope_mpf(sd, x)
        fx = lhs - n
        step = -fx / slope if slope else mp.inf
        if abs(step) <= step_tol and (abs(fx) <= tol or abs(fx) <= rel * term_size_mpf(sd, x)):
            return x, fx, (lo, hi), newtons, bisections
        if fx > 0:
            lo = x
        else:
            hi = x
        if abs(step) < mpf(2) ** -26:
            x_new = x + x * (step + k * step * step)
        else:
            if lhs > 0 and slope:
                step = -mp.log(lhs / n) * lhs / slope
            x_new = x * mp.exp(step)
        if lo < x_new < hi:
            newtons += 1
            x = x_new
        else:
            bisections += 1
            x = mp.sqrt(lo * hi)
    raise ValueError(f"no root found for n = {n}")


def remainder_delta_mpf(sd, tau, tol):
    """(Delta(tau), whether the stored D(-l) ran out before the term-size
    rule stopped the sum)."""
    coefficients = []
    fact = mpf(1)
    for l, d in enumerate(sd.d_neg, start=1):
        fact *= l
        coefficients.append((-1) ** l * mpmathify(d) / fact)
    partial = mpf(0)
    tau_pow = mpf(1)
    for c in coefficients:
        tau_pow *= tau
        term = c * tau_pow
        if abs(term) < tol * (1 + abs(partial)):
            return partial, False
        partial += term
    return partial, True


def _half_log_variance_mpf(sd):
    rho_r, h_r = sd.poles[-1]
    return mp.log(2 * mp.pi * rho_r * h_r * (rho_r + 1)) / 2


def khintchine_estimate_mpf(sd, n, bracket, series_tol):
    """(log value, terms) of the Khintchine-form estimate at a whole n."""
    delta = solve_delta_mpf(sd, n, bracket)[0]
    if not delta < 1:
        raise ValueError(f"delta_n = {delta} is not below 1")
    log_delta = mp.log(delta)
    rho_r = sd.poles[-1][0]
    prefactor = (rho_r / 2 + 1) * log_delta - _half_log_variance_mpf(sd)
    power = -sd.A0 * log_delta
    exponent = n * delta
    for rho, h in sd.poles:
        exponent += h * delta ** (-rho)
    q_or_delta = sd.h0 + remainder_delta_mpf(sd, delta, series_tol)[0]
    terms = {
        "prefactor_log": prefactor,
        "power_log": power,
        "exponent_sum": exponent,
        "Q_or_delta": q_or_delta,
    }
    return sum(terms.values()), terms


def q_constant_mpf(sd, gap_tol=mpf("1e-12")):
    """Q of the explicit formula: h0, less the second pole's square
    contribution on a critical spectrum (|2 rho_{r-1} - rho_r| <= gap_tol);
    ValueError on an ineligible one."""
    if len(sd.poles) == 1 or 2 * sd.poles[-2][0] - sd.poles[-1][0] < -gap_tol:
        return sd.h0
    if 2 * sd.poles[-2][0] - sd.poles[-1][0] > gap_tol:
        raise ValueError("ineligible spectrum")
    rho_r, h_r = sd.poles[-1]
    rho_p, h_p = sd.poles[-2]
    correction = (
        (rho_r * h_r) ** (-(2 * rho_p + 1) / (rho_r + 1))
        * (rho_p * h_p) ** 2
        / (2 * (rho_r + 1))
    )
    return sd.h0 - correction


def explicit_estimate_mpf(sd, n, Q):
    """(log value, terms) of the explicit estimate at a whole n >= 1, given
    the constant Q."""
    rho_r, h_r = sd.poles[-1]
    rh = rho_r * h_r
    prefactor = -_half_log_variance_mpf(sd) + (
        (rho_r + 2 - 2 * sd.A0) / (2 * (rho_r + 1))
    ) * mp.log(rh)
    kappa = (-rho_r / 2 - 1 + sd.A0) / (rho_r + 1)
    powers = [((1 + rho_r) * h_r * rh ** (-rho_r / (rho_r + 1)), rho_r / (rho_r + 1))]
    for rho, h in sd.poles[:-1]:
        powers.append((h * rh ** (-rho / (rho_r + 1)), rho / (rho_r + 1)))
    nn = mpmathify(n)
    terms = {
        "prefactor_log": prefactor,
        "power_log": kappa * mp.log(nn),
        "exponent_sum": sum(coef * nn**e for coef, e in powers),
        "Q_or_delta": Q,
    }
    return sum(terms.values()), terms


def compare_row_mpf(n, c, kh, ex, log_scale):
    """One `compare` CSV row from c_n and the two predicted log values: logs
    divided by log_scale (log 10, or 1 for natural logs), then each ratio
    exp(exact_log - prediction), every cell at 15 significant digits."""
    exact_log = mp.log(mpmathify(c))
    cells = [mp.nstr(x / log_scale, 15) for x in (exact_log, kh, ex)]
    cells += [mp.nstr(mp.exp(exact_log - pred), 15) for pred in (kh, ex)]
    return ",".join([str(n)] + cells)
