"""Derive the analytic data that drives every asymptotic estimate.

Each model contributes a Dirichlet series whose poles (rho_l, h_l),
value A0 at zero, and derivative constant h0 fully determine the growth
of the coefficients.  This prints those constants for the built-in
models, plus the derived decay exponent kappa and constant term Q.
"""

from mpmath import mp

from subexp import derive_spectrum, kappa, make_preset, q_constant, validate_spectrum
from subexp.spectrum import INELIGIBLE

for kind, args in (("standard", ()), ("roots", ()), ("congruent", (3, 2))):
    model = make_preset(kind, *args)
    sd = derive_spectrum(model)
    classification = validate_spectrum(sd)
    print(f"== {sd.label} ==")
    for p in sd.poles:
        print(f"  pole rho={mp.nstr(p.rho, 6)}  h={mp.nstr(p.h, 20)}")
    print(f"  A0    = {mp.nstr(sd.A0, 20)}")
    print(f"  h0    = {mp.nstr(sd.h0, 20)}")
    print(f"  theta = {mp.nstr(sd.theta, 20)}")
    print(f"  class = {classification}")
    if classification != INELIGIBLE:
        print(f"  kappa = {mp.nstr(kappa(sd), 20)}")
        print(f"  Q     = {mp.nstr(q_constant(sd), 20)}")
    print()

# the roots model sits exactly on the boundary: two poles at rho=2 and
# rho=1 with gap 2*1 - 1 - 1 = 0, which shifts Q away from h0
sd = derive_spectrum(make_preset("roots"))
shift = sd.h0 - q_constant(sd)
closed = (mp.pi**2 / 6) ** 2 / (24 * mp.zeta(3))
print("critical-case Q shift:", mp.nstr(shift, 25))
print("zeta(2)^2/(24 zeta(3)):", mp.nstr(closed, 25))
print("difference:", mp.nstr(abs(shift - closed), 3))
