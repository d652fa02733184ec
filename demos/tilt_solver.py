"""Watch the saddle-point equation being solved as n grows.

The tilt delta = -log z balances the expected size of a random weighted
partition against the target n.  The equation is solved in y = 1/delta.
With one pole at rho = 1 (standard and every congruent(a, b)) it is the
quadratic h y^2 + A0 y + D(-1) = n, and with poles at rho = 2, or at 1
and 2 (roots and every degree-1 weight rule), the cubic
2 h_2 y^3 + h_1 y^2 + A0 y + D(-1) = n; solve_delta takes the quadratic's
positive root, or the cubic's real root by Cardano, at the working
precision, and one evaluation of the equation confirms it.  Other spectra
(b_j = j^2 + 1 here, poles at rho = 1 and 3), and a cubic with three real
roots, first run Newton on log lhs - log n in Python floats, from the
power law (rho_r h_r / n)^(1/(rho_r+1)); that lands within float rounding
of the root, so the polish by Newton in log(delta) at the working
precision needs one to three evaluations.  When floats cannot reach the
root (overflow, underflow, lhs <= 0, an iterate outside the bracket), the
same loop starts from that power law at the working precision instead
and bisects wherever a Newton step would leave its bracket.  The
residual stays far below the max(1e-10 n, 1e-12) contract either way.
The two-term expansion of 1/delta, computed inline, serves only as a
cross-check here.
"""

from mpmath import mp, mpf

from subexp import (MULTISET, ModelSpec, Pole, SpectralData, derive_spectrum, make_preset,
                    solve_delta)
from subexp.model import QuasiPolynomial

sd = derive_spectrum(make_preset("standard"))
# one pole, so the two-term expansion of 1/delta is its leading term
# z0 = (n / (rho h))^(1/(rho+1)) = sqrt(6 n)/pi
(rho, h), = sd.poles

print("n, delta, residual, evaluations at 38 digits, newton/bisection steps, "
      "two-term expansion error")
for k in range(1, 9):
    n = 10**k
    sol = solve_delta(sd, n)
    z = 1 / sol.delta
    guess_err = abs(z - (n / (rho * h)) ** (1 / (rho + 1))) / z
    print(f"  1e{k}: delta={mp.nstr(sol.delta, 12)}  res={mp.nstr(sol.residual, 3)}  "
          f"evals={sol.iterations + 1} steps={sol.newton_steps}/{sol.bisection_steps}  "
          f"expansion off by {mp.nstr(guess_err, 3)}")

# roots takes the cubic's root at any precision; off the closed forms the
# float seed leaves less to polish at lower precision
squares = ModelSpec("squares", MULTISET, QuasiPolynomial(1, ((1, 2, 1), (1, 0, 1))))
print()
for name, model in (("roots", make_preset("roots")), ("b_j = j^2 + 1", squares)):
    for dps in (15, 20, 38, 60):
        with mp.workdps(dps):
            sol = solve_delta(derive_spectrum(model), 1000)
            print(f"{name} n=1000 at {dps} digits: delta={mp.nstr(sol.delta, 12)} "
                  f"after {sol.iterations + 1} evaluation(s)")

# one pole at rho = 2: the cubic 2 y^3 - 6 y = 2 has three real roots, so
# the seed falls back to the float phase; lhs = 2 delta^-3 - 6/delta is -4
# at its seed delta = 1 for n = 2, so it hands over too, and the fallback
# loop narrows its bracket around the root 2 cos(2 pi/9) - 1
flat = SpectralData("flat", (Pole(mpf(2), mpf(1)),), mpf(-6), mpf(0), (mpf(0),))
sol = solve_delta(flat, 2)
lo, hi = sol.bracket
print()
print(f"fallback: delta={mp.nstr(sol.delta, 20)} (2 cos(2 pi/9) - 1 = "
      f"{mp.nstr(2 * mp.cos(2 * mp.pi / 9) - 1, 20)}) in "
      f"{sol.iterations} steps, {sol.bisection_steps} bisections; "
      f"final bracket {mp.nstr(lo, 6)} < delta < {mp.nstr(hi, 6)}")
