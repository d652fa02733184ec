"""Watch the saddle-point equation being solved as n grows.

The tilt delta = -log z balances the expected size of a random weighted
partition against the target n.  With one pole at rho = 1 (standard and
every congruent(a, b)) the equation h/delta^2 + A0/delta + D(-1) = n is a
quadratic in 1/delta, so solve_delta takes its positive root at the
working precision and one evaluation of the equation confirms it.  Other
spectra (roots here) first run Newton on log lhs - log n in Python
floats, from the power law (rho_r h_r / n)^(1/(rho_r+1)); that lands
within float rounding of the root, so the polish by Newton in log(delta)
at the working precision needs one to three evaluations.  When floats
cannot reach the root (overflow, underflow, lhs <= 0, an iterate outside
the bracket), the same loop starts from that power law at the working
precision instead and bisects wherever a Newton step would leave its
bracket.  The residual stays far below the max(1e-10 n, 1e-12) contract
either way.  The two-term expansion of 1/delta, computed inline, serves
only as a cross-check here.
"""

from mpmath import mp, mpf

from subexp import Pole, SpectralData, derive_spectrum, make_preset, solve_delta

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

# on two poles the float seed leaves less to polish at lower precision
print()
for dps in (15, 20, 38, 60):
    with mp.workdps(dps):
        sol = solve_delta(derive_spectrum(make_preset("roots")), 1000)
        print(f"roots n=1000 at {dps} digits: delta={mp.nstr(sol.delta, 12)} "
              f"after {sol.iterations + 1} evaluation(s)")

# one pole at rho = 2: lhs = 2 delta^-3 - 6/delta is -4 at the float seed
# delta = 1 for n = 2, so the float phase hands over; the fallback loop
# narrows its bracket around the root 2 cos(2 pi/9) - 1
flat = SpectralData("flat", (Pole(mpf(2), mpf(1)),), mpf(-6), mpf(0), (mpf(0),))
sol = solve_delta(flat, 2)
lo, hi = sol.bracket
print()
print(f"fallback: delta={mp.nstr(sol.delta, 20)} (2 cos(2 pi/9) - 1 = "
      f"{mp.nstr(2 * mp.cos(2 * mp.pi / 9) - 1, 20)}) in "
      f"{sol.iterations} steps, {sol.bisection_steps} bisections; "
      f"final bracket {mp.nstr(lo, 6)} < delta < {mp.nstr(hi, 6)}")
