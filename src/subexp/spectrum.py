"""Analytic data of Gamma(s)*D(s) for a model.

D(s) = sum_k Lambda_k k^(-s) is the Dirichlet generating function of the
log-coefficients.  The asymptotic machinery consumes only its spectral
data: the positive simple poles rho_1 < ... < rho_r of Gamma(s)D(s) with
residues h_l, the zero-pole constants A_0 = lim s*D(s) and h_0, and the
values D(-1), D(-2), ... feeding the correction series.

Every preset is a multiset model with a_j = 1 and a QuasiPolynomial
weight, b_j = sum of c*j^i over the terms (r, i, c) with j = r (mod a).
Then D(s) = zeta(s+1)*D_b(s) with D_b(s) = sum c*a^(i-s)*zeta(s-i, r/a),
and one rule gives all the data: degree i is the pole rho = i+1 with
h = A*zeta(rho+1)*Gamma(rho), A = (sum of its c)/a (Meinardus);
A_0 = D_b(0); h_0 = D_b'(0) = sum c*a^i*zeta'(-i, r/a) - log(a)*A_0;
D(-l) = zeta(1-l)*D_b(-l).  Other models must supply their data.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

from mpmath import mp, mpf

from .errors import (
    CustomModelError,
    InvalidParametersError,
    SpectrumDataError,
    SpectrumSchemaError,
)
from .model import MULTISET, ModelSpec, QuasiPolynomial
from .precision import to_mpf
from .specfun import euler_gamma, hurwitz_zeta, hurwitz_zeta_deriv, riemann_zeta

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
    """

    label: str
    poles: tuple
    A0: mpf
    h0: mpf
    d_neg: tuple

    @property
    def r(self) -> int:
        return len(self.poles)

    @property
    def rho_r(self) -> mpf:
        return self.poles[-1].rho

    @property
    def gap(self) -> Optional[mpf]:
        """2*rho_{r-1} - rho_r, the eligibility gap; None when r = 1."""
        if self.r == 1:
            return None
        return 2 * self.poles[-2].rho - self.poles[-1].rho

    @property
    def theta(self) -> mpf:
        return self.h0 + euler_gamma() * self.A0

    def d1(self) -> mpf:
        return self.d_neg[0]


@dataclass(frozen=True)
class ValidationReport:
    ordered: bool
    positive: bool
    gap: Optional[mpf]
    classification: str
    messages: tuple

    @property
    def ok(self) -> bool:
        return self.ordered and self.positive


def validate_spectrum(sd: SpectralData) -> ValidationReport:
    """Structural checks plus the critical/subcritical classification.

    r = 1 counts as subcritical (the two-pole condition is vacuous).
    Never raises; callers that need a hard failure inspect the report.
    """
    messages = []
    ordered = True
    positive = True
    if sd.r < 1:
        ordered = False
        messages.append("no poles")
    prev = mpf(0)
    for l, (rho, h) in enumerate(sd.poles, start=1):
        if not rho > prev:
            ordered = False
            messages.append(f"pole {l}: rho={rho} not greater than previous {prev}")
        prev = rho
        if not h > 0:
            positive = False
            messages.append(f"pole {l}: residue h={h} not positive")
    if len(sd.d_neg) < 1:
        messages.append("d_neg empty")
    gap = sd.gap
    if sd.r <= 1:
        classification = SUBCRITICAL
    elif abs(gap) <= GAP_TOL:
        classification = CRITICAL
    elif gap < 0:
        classification = SUBCRITICAL
    else:
        classification = INELIGIBLE
        messages.append(f"2*rho_{{r-1}} - rho_r = {gap} > 0: no explicit formula")
    return ValidationReport(ordered, positive, gap, classification, tuple(messages))


def derive_spectrum(model: ModelSpec, L: int = 8) -> SpectralData:
    """Spectral data for a quasi-polynomial model, with d_neg up to D(-L).

    L defaults to 8: in every preset the Delta-series terms beyond that
    are below 1e-20 for all n >= 10.  Other models have no derivable
    data; supply it via load_custom_spectrum.
    """
    if not (1 <= L <= 20):
        raise InvalidParametersError(f"need 1 <= L <= 20; got L={L}")
    if not (isinstance(model.weight, QuasiPolynomial) and model.base is MULTISET
            and model.unit_scale):
        raise CustomModelError(
            f"no derivable spectral data for model kind {model.kind!r}; "
            "supply poles/A0/h0/d_neg explicitly (load_custom_spectrum)"
        )
    a, terms = model.weight.a, model.weight.terms
    csum = {}  # degree i -> sum of its c over all residues
    for _, i, c in terms:
        csum[i] = csum.get(i, 0) + c
    poles = tuple(Pole(mpf(i + 1), c * riemann_zeta(i + 2) * mp.factorial(i) / a)
                  for i, c in sorted(csum.items()) if c)
    # every Hurwitz value zeta(s-i, r/a) that D_b(0), ..., D_b(-L) need, once
    keys = {(s - i, r) for r, i, _ in terms for s in range(-L, 1)}
    hz = {(m, r): hurwitz_zeta(m, mpf(r) / a) for m, r in keys}
    db = lambda s: sum(c * a ** (i - s) * hz[s - i, r] for r, i, c in terms)
    A0 = db(0)
    h0 = sum(c * a**i * hurwitz_zeta_deriv(-i, mpf(r) / a) for r, i, c in terms)
    h0 -= mp.log(a) * A0
    d_neg = tuple(riemann_zeta(1 - l) * db(-l) for l in range(1, L + 1))
    params = ",".join(map(str, model.params))
    label = f"{model.kind}({params})" if params else model.kind
    return SpectralData(label, poles, A0, h0, d_neg)


_SCHEMA_KEYS = {"poles", "A0", "h0", "d_neg", "theta", "weights", "label"}


def load_custom_spectrum(document: dict) -> SpectralData:
    """Parse explicit spectral data from a mapping (decoded JSON).

    Required keys: poles (nonempty array of {rho, h}), A0, h0, d_neg
    (nonempty array).  Optional: label, weights (consumed by the
    command layer for exact counting, ignored here) and theta, which is
    derived from h0 and A0 and, when given, must agree with that to
    1e-12 relative, loose enough for values rounded to JSON doubles.
    Numbers may be given as strings to survive the decimal-to-binary
    round trip at full working precision.
    """
    if not isinstance(document, dict):
        raise SpectrumSchemaError(f"expected a mapping, got {type(document).__name__}")
    unknown = set(document) - _SCHEMA_KEYS
    if unknown:
        raise SpectrumSchemaError(f"unknown keys: {sorted(unknown)}")
    missing = {"poles", "A0", "h0", "d_neg"} - set(document)
    if missing:
        raise SpectrumSchemaError(f"missing required keys: {sorted(missing)}")

    def _num(x, where):
        if isinstance(x, bool) or not isinstance(x, (int, float, str)):
            raise SpectrumSchemaError(f"{where}: expected a number, got {x!r}")
        try:
            return to_mpf(x)
        except Exception as exc:
            raise SpectrumSchemaError(f"{where}: cannot parse {x!r}: {exc}") from None

    raw_poles = document["poles"]
    if not isinstance(raw_poles, list) or not raw_poles:
        raise SpectrumSchemaError("poles must be a nonempty array of {rho, h}")
    poles = []
    for i, entry in enumerate(raw_poles, start=1):
        if not isinstance(entry, dict) or set(entry) != {"rho", "h"}:
            raise SpectrumSchemaError(
                f"poles[{i}]: expected an object with exactly keys rho, h"
            )
        poles.append(Pole(_num(entry["rho"], f"poles[{i}].rho"),
                          _num(entry["h"], f"poles[{i}].h")))
    raw_dneg = document["d_neg"]
    if not isinstance(raw_dneg, list) or not raw_dneg:
        raise SpectrumSchemaError("d_neg must be a nonempty array")
    d_neg = tuple(_num(x, f"d_neg[{i}]") for i, x in enumerate(raw_dneg, start=1))
    theta = document.get("theta")
    if theta is not None:
        theta = _num(theta, "theta")
    sd = SpectralData(
        str(document.get("label", "custom")),
        tuple(poles),
        _num(document["A0"], "A0"),
        _num(document["h0"], "h0"),
        d_neg,
    )
    report = validate_spectrum(sd)
    if not report.ok:
        raise SpectrumDataError("; ".join(report.messages))
    if theta is not None and abs(theta - sd.theta) > mpf("1e-12") * (1 + abs(theta)):
        raise SpectrumDataError(
            f"theta = {theta} disagrees with h0 + euler_gamma*A0 = {sd.theta}"
        )
    return sd
