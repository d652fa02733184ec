"""Run the machinery on a user-supplied model instead of a preset.

Two routes: an explicit weight table for exact counting, and a spectrum
document for the asymptotic side.  b_j = j is a quasi-polynomial rule, so
derive_spectrum computes its spectrum; the values then travel as a JSON
document, the route for any model whose spectrum the user supplies (the
analytic continuation of a custom Dirichlet series is the user's job; the
library only validates and consumes it).
"""

import json
from fractions import Fraction

from mpmath import mp

from subexp import (
    MULTISET,
    ModelSpec,
    custom_model,
    derive_spectrum,
    exact_coefficients,
    lambda_coeffs,
    llt_condition_report,
    load_custom_spectrum,
    log_estimate_khintchine,
    make_preset,
    solve_delta,
    validate_spectrum,
)
from subexp.model import QuasiPolynomial

# weight table: parts of size j available in b_j colors, here b = 1,2,3,...
model = custom_model(range(1, 51), kind="plane-ish")
series = exact_coefficients(model, 50)
print("counts with b_j = j:", list(series.coeffs[:12]))

lam = lambda_coeffs(model, 8)
print("log-coefficients:",
      [str(Fraction(kv, k)) for k, kv in enumerate(lam.k_values, start=1)])

# the same counts from the spectrum side: the weight Dirichlet series for
# b_j = j is zeta(s-1), one pole at rho=2 with h = Gamma(2)zeta(3), value at
# 0 zeta(-1), derivative at 0 zeta'(-1).  As a rule: every j (residue 1 mod
# 1) gets 1*j^1
rule = QuasiPolynomial(1, ((1, 1, 1),))
derived = derive_spectrum(ModelSpec("b_j = j", MULTISET, rule))
doc = {
    "label": derived.label,
    "poles": [{"rho": str(rho), "h": str(h)} for rho, h in derived.poles],
    "A0": str(derived.A0),
    "h0": str(derived.h0),
    "d_neg": [str(d) for d in derived.d_neg],
}
sd = load_custom_spectrum(json.loads(json.dumps(doc)))
print("custom spectrum:", validate_spectrum(sd))

sol = solve_delta(sd, 1000)
est = log_estimate_khintchine(sd, 1000)
print(f"n=1000: delta = {mp.nstr(sol.delta, 10)}, "
      f"log-estimate = {mp.nstr(est.log_value, 15)}")
print(f"exact log c_1000 would need a longer table; at n=50: "
      f"log c_50 = {mp.nstr(mp.log(series[50]), 10)} vs "
      f"estimate {mp.nstr(log_estimate_khintchine(sd, 50).log_value, 10)}")

# diagnostic for the periodicity condition behind the local limit step:
# the count of usable part sizes below n coprime-ish to q must swamp
# log^2 n.  For b_j = j it obviously does.
rows = llt_condition_report(make_preset("standard"), 4096, 4)
worst = min(rows, key=lambda r: r["ratio"])
print(f"standard model LLT report, worst ratio count/log^2 n = "
      f"{worst['ratio']:.1f} at q={worst['q']}, n={worst['n']}")
