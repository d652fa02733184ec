"""Independent oracle implementations used by the test suite.

Nothing here imports the package under test.  Each oracle reimplements
a quantity by a deliberately different route (direct summation, naive
DP, plain bisection) so that agreement with the library is meaningful.
"""

from fractions import Fraction

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


def divisor_k_lambda(weight, k):
    """k*Lambda_k = sum over divisors j of k of j*b_j, enumerated naively."""
    total = Fraction(0)
    for j in range(1, k + 1):
        if k % j == 0:
            total += j * Fraction(weight(j))
    return total


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
