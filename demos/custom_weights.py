"""Run the machinery on a user-supplied model instead of a preset.

Two routes: an explicit weight table for exact counting, and a
hand-written spectrum document for the asymptotic side (the analytic
continuation of a custom Dirichlet series is the user's job; the
library only validates and consumes it).
"""

import json
from fractions import Fraction

from mpmath import mp

from subexp import (
    custom_model,
    exact_coefficients,
    lambda_coeffs,
    llt_condition_report,
    load_custom_spectrum,
    log_estimate_khintchine,
    make_preset,
    solve_delta,
    validate_spectrum,
)

# weight table: parts of size j available in b_j colors, here b = 1,2,3,...
model = custom_model(range(1, 51), kind="plane-ish")
series = exact_coefficients(model, 50)
print("counts with b_j = j:", list(series.coeffs[:12]))

lam = lambda_coeffs(model, 8)
print("log-coefficients:",
      [str(Fraction(kv, k)) for k, kv in enumerate(lam.k_values, start=1)])

# the same counts from the spectrum side: the weight Dirichlet series
# for b_j = j is zeta(s-1), single pole at rho=2 with h = Gamma(2)zeta(3),
# value at 0 is zeta(-1), derivative at 0 is zeta'(-1)
doc = {
    "label": "b_j = j",
    "poles": [{"rho": 2, "h": str(mp.zeta(3))}],
    "A0": str(mp.zeta(-1)),
    "h0": str(mp.mpf(1) / 12 - mp.log(mp.glaisher)),
    "d_neg": [str(mp.zeta(0) * mp.zeta(-2)), str(mp.zeta(-1) * mp.zeta(-3))],
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
