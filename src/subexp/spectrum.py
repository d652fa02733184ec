"""Analytic data of Gamma(s)*D(s) for a model.

D(s) = sum_k Lambda_k k^(-s) is the Dirichlet generating function of the
log-coefficients.  The asymptotic machinery consumes only its spectral
data: the positive simple poles rho_1 < ... < rho_r of Gamma(s)D(s) with
residues h_l, the zero-pole constants A_0 = lim s*D(s) and h_0, and the
values D(-1), D(-2), ... feeding the correction series.

Every preset is a multiset model with a QuasiPolynomial weight,
b_j = sum of c*j^i over the terms (r, i, c) with j = r (mod a).
Then D(s) = zeta(s+1)*D_b(s) with D_b(s) = sum c*a^(i-s)*zeta(s-i, r/a),
and one rule gives all the data: degree i is the pole rho = i+1 with
h = A*zeta(rho+1)*Gamma(rho), A = (sum of its c)/a (Meinardus);
A_0 = D_b(0); h_0 = D_b'(0) = sum c*a^i*zeta'(-i, r/a) - log(a)*A_0;
D(-l) = zeta(1-l)*D_b(-l).  As zeta(-m, q) = -B_{m+1}(q)/(m+1), A_0 and
every D(-l) are rationals, computed exactly and rounded once, to nearest.
The Bernoulli table behind them ends at specfun.BERNOULLI_MAX, so a weight
of degree i derives with L <= BERNOULLI_MAX - 1 - i.  SpectralData refuses
a negative residue (a degree whose c sum below 0) and a rule with no pole.
Other models must supply their data, as a document (load_custom_spectrum)
or as SpectralData built directly, which reads plain numbers and checks
them when it is made.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from mpmath import mp, mpf

from .errors import (
    CustomModelError,
    InvalidParametersError,
    SpectrumDataError,
    SpectrumSchemaError,
)
from .model import MULTISET, ModelSpec, QuasiPolynomial
from .precision import int_arg, shown, to_mpf
from .specfun import BERNOULLI_MAX, hurwitz_zeta_deriv, hurwitz_zeta_exact, riemann_zeta

# classification tolerance on 2*rho_{r-1} - rho_r; preset poles are exact
# small integers, so this only guards custom input
GAP_TOL = mpf("1e-12")

SUBCRITICAL = "subcritical"
CRITICAL = "critical"
INELIGIBLE = "ineligible"


class Pole(NamedTuple):
    rho: mpf
    h: mpf


@dataclass(frozen=True)
class SpectralData:
    """Poles, residues and zero-pole constants of Gamma(s)*D(s).

    poles are (rho_l, h_l) sorted strictly increasing in rho; A0 is
    lim_{s->0} s*D(s); h0 the zero-pole constant entering every log
    estimate; d_neg[l-1] = D(-l).  theta, the constant term of D at 0,
    is derived: Gamma(s) = 1/s - euler_gamma + O(s) gives
    theta = h0 + euler_gamma*A0.

    Construction converts each number by to_mpf (an mpf stays as it is, a
    numeric str is read, a bool is no number) and each (rho, h) pair to a
    Pole (poles, each pair and d_neg must be sequences, not strs), then
    enforces the contract every estimate relies on (a str label, a pole,
    0 < rho_1 < ... < rho_r, h_l > 0, nonempty d_neg, all numbers real and
    finite); SpectrumDataError names each violation.
    """

    label: str
    poles: tuple
    A0: mpf
    h0: mpf
    d_neg: tuple

    def __post_init__(self):
        unread = [] if isinstance(self.label, str) else [f"label={shown(self.label)} not a str"]
        nonfinite = []

        def real(name, x):  # None for a value that is no number
            try:
                x = to_mpf(x)
            except InvalidParametersError:
                unread.append(f"{name}={shown(x)} not a real number")
                return None
            if not mp.isfinite(x):
                nonfinite.append(f"{name}={x} not finite")
            return x

        def items(name, x, size=None):  # x as a tuple, of size entries if given
            try:
                t = tuple(x) if not isinstance(x, str) else None
            except TypeError:
                t = None
            if t is None or size not in (None, len(t)):
                raise SpectrumDataError(f"{name}={shown(x)} not a sequence"
                                        + (f" of {size}" if size else ""))
            return t

        A0, h0 = real("A0", self.A0), real("h0", self.h0)
        poles = tuple(Pole(real(f"pole {l}: rho", rho), real(f"pole {l}: h", h))
                      for l, pole in enumerate(items("poles", self.poles), start=1)
                      for rho, h in [items(f"pole {l}", pole, 2)])
        d_neg = tuple(real(f"D(-{l})", d)
                      for l, d in enumerate(items("d_neg", self.d_neg), start=1))
        problems = [] if poles else ["no poles"]
        if not d_neg:
            problems.append("d_neg empty")
        prev = 0
        for l, (rho, h) in enumerate(poles, start=1):
            if rho is not None:  # compared with the last rho read
                if not rho > prev:
                    problems.append(f"pole {l}: rho={rho} not greater than {prev}")
                prev = rho
            if h is not None and not h > 0:
                problems.append(f"pole {l}: residue h={h} not positive")
        if unread + problems + nonfinite:
            raise SpectrumDataError("; ".join(unread + problems + nonfinite))
        # _memo is not a field, so ==, hash and repr ignore it (see memo)
        vars(self).update(poles=poles, A0=A0, h0=h0, d_neg=d_neg, _memo={})

    @property
    def r(self) -> int:
        return len(self.poles)

    @property
    def rho_r(self) -> mpf:
        return self.poles[-1].rho

    @property
    def gap(self) -> Optional[mpf]:
        """2*rho_{r-1} - rho_r, the eligibility gap; None when r <= 1."""
        if self.r <= 1:
            return None
        return 2 * self.poles[-2].rho - self.poles[-1].rho

    @property
    def theta(self) -> mpf:
        return self.h0 + mp.euler * self.A0

    def memo(self, build):
        """build(self), computed once per working precision and kept on
        this instance, so it goes when the instance goes.

        For values derived from the fields only: ==, hash and repr read the
        fields alone, and a change of mp.prec rebuilds.  A build that raises
        stores nothing.
        """
        prec, value = self._memo.get(build, (None, None))
        if prec != mp._prec:
            value = build(self)
            self._memo[build] = (mp._prec, value)
        return value


def validate_spectrum(sd: SpectralData) -> str:
    """The classification of a spectrum by sd.gap: SUBCRITICAL, CRITICAL or
    INELIGIBLE.

    SpectralData checks its structure when built, so this only classifies.
    r = 1 counts as subcritical (the two-pole condition is vacuous).
    """
    gap = sd.gap
    if sd.r <= 1 or gap < -GAP_TOL:
        return SUBCRITICAL
    if gap <= GAP_TOL:
        return CRITICAL
    return INELIGIBLE


def derive_spectrum(model: ModelSpec, L: int = 8) -> SpectralData:
    """Spectral data for a quasi-polynomial model, with d_neg up to D(-L).

    A0 and D(-l) are exact rationals (Bernoulli polynomial values) rounded
    once, to nearest; the residues and h0 are evaluated in mpmath.
    L is an int >= 1 and defaults to 8.  Over standard, roots and the coprime congruent(a, b)
    with a <= 12, the largest Delta-series term beyond l=8 at the solved
    tau (derived with L=20) is 2.6e-9 at n=10 (congruent(12,1); roots
    1.4e-11), 6.7e-15 at n=100, 2e-18 at n=1000 and 8.4e-22 at n=10^4
    (both roots), so below n of about 100 the default leaves terms above
    the series' 1e-12 tolerance unsummed.  D(-L) reads zeta(-L-i, q) for
    each degree i of a term with c != 0, so degree + L must stay below
    BERNOULLI_MAX (21 at most; InvalidParametersError otherwise).  A degree
    whose coefficients sum below 0 gives its pole a negative residue, and a
    rule whose sums are all 0 has no pole: SpectralData refuses both
    (SpectrumDataError).  Other models have no derivable data; supply it via
    load_custom_spectrum.
    """
    int_arg("L", L, 1)
    if not (isinstance(model.weight, QuasiPolynomial) and model.base is MULTISET):
        raise CustomModelError(
            f"no derivable spectral data for model kind {shown(model.kind)}; "
            "supply poles/A0/h0/d_neg explicitly (load_custom_spectrum)"
        )
    a, terms = model.weight.a, [t for t in model.weight.terms if t[2]]
    degree = max((i for _, i, _ in terms), default=0)
    if degree + L >= BERNOULLI_MAX:  # D(-L) reads B_(L+degree+1), by zeta(-L-degree, q)
        raise InvalidParametersError(
            f"{model.kind}: degree {degree} + L={L} is {degree + L}; the Bernoulli "
            f"table allows degree + L <= {BERNOULLI_MAX - 1}")
    csum = {}  # degree i -> sum of its c over all residues
    for _, i, c in terms:
        csum[i] = csum.get(i, 0) + c
    poles = tuple(Pole(mpf(i + 1), c * riemann_zeta(i + 2) * mp.factorial(i) / a)
                  for i, c in sorted(csum.items()) if c)
    # every Hurwitz value zeta(s-i, r/a) that D_b(0), ..., D_b(-L) need, once
    keys = {(s - i, r) for r, i, _ in terms for s in range(-L, 1)}
    hz = {(m, r): hurwitz_zeta_exact(m, Fraction(r, a)) for m, r in keys}
    db = lambda s: sum(c * a ** (i - s) * hz[s - i, r] for r, i, c in terms)
    exact = [db(0)] + [hurwitz_zeta_exact(1 - l, 1) * db(-l) for l in range(1, L + 1)]
    # each rounded once, to nearest (mpf(Fraction) rounds toward zero, and
    # mpf(p)/q twice once p outgrows mp.prec)
    A0, *d_neg = (mp.fdiv(x.numerator, x.denominator) for x in exact)
    h0 = sum(c * a**i * hurwitz_zeta_deriv(-i, mpf(r) / a) for r, i, c in terms)
    h0 -= mp.log(a) * A0
    params = ",".join(map(shown, model.params))
    label = f"{model.kind}({params})" if params else model.kind
    return SpectralData(label, poles, A0, h0, tuple(d_neg))


_SCHEMA_KEYS = {"poles", "A0", "h0", "d_neg", "theta", "weights", "label"}


def load_custom_spectrum(document: dict) -> SpectralData:
    """Parse explicit spectral data from a mapping (decoded JSON).

    Required keys: poles (an array of {rho, h}), A0, h0, d_neg (an array).
    Optional: label (a string; null counts as absent, "custom"), weights
    (consumed by the command layer for exact counting, ignored here) and
    theta, derived from h0 and A0; a given theta must be finite and agree
    with that to 1e-12 relative, loose enough for JSON doubles.  Numbers may
    be strings, to survive the decimal-to-binary round trip.
    SpectrumSchemaError for a wrong shape or a theta that is no number;
    SpectralData reads and checks every other value, the label too
    (SpectrumDataError).
    """
    if not isinstance(document, dict):
        raise SpectrumSchemaError(f"expected a mapping, got {type(document).__name__}")
    unknown = set(document) - _SCHEMA_KEYS
    if unknown:
        raise SpectrumSchemaError(f"unknown keys: {sorted(unknown)}")
    missing = {"poles", "A0", "h0", "d_neg"} - set(document)
    if missing:
        raise SpectrumSchemaError(f"missing required keys: {sorted(missing)}")
    poles, d_neg = document["poles"], document["d_neg"]
    if not (isinstance(poles, list) and isinstance(d_neg, list)):
        raise SpectrumSchemaError("poles and d_neg must be arrays")
    bad = [i for i, p in enumerate(poles, start=1)
           if not isinstance(p, dict) or set(p) != {"rho", "h"}]
    if bad:
        raise SpectrumSchemaError(f"poles{bad}: expected objects with keys rho, h only")
    label = document.get("label")  # null, as absent, is "custom"
    sd = SpectralData("custom" if label is None else label,
                      tuple((p["rho"], p["h"]) for p in poles),
                      document["A0"], document["h0"], tuple(d_neg))
    theta = document.get("theta")
    if theta is None:
        return sd
    try:
        gap = abs(to_mpf(theta) - sd.theta)  # nan or inf when theta is not finite
    except InvalidParametersError:
        raise SpectrumSchemaError(
            f"theta: expected a number, got {shown(theta)}") from None
    if not gap <= mpf("1e-12") * (1 + abs(sd.theta)):
        raise SpectrumDataError(f"theta = {shown(theta)} disagrees with h0 + "
                                f"euler_gamma*A0 = {sd.theta}")
    return sd
