"""Watch the saddle-point equation being solved as n grows.

The tilt delta = -log z balances the expected size of a random weighted
partition against the target n.  Newton in log(delta) from a power-law
initial guess converges in a handful of steps, with no bisection; the
residual stays far below the max(1e-10 n, 1e-12) contract.
"""

from mpmath import mp

from subexp import derive_spectrum, initial_guess, make_preset, solve_delta

sd = derive_spectrum(make_preset("standard"))

print("n, delta, residual, iterations, newton/bisection steps, relative guess error")
for k in range(1, 9):
    n = 10**k
    sol = solve_delta(sd, n)
    z = 1 / sol.delta
    guess_err = abs(z - initial_guess(sd, n)) / z
    print(f"  1e{k}: delta={mp.nstr(sol.delta, 12)}  res={mp.nstr(sol.residual, 3)}  "
          f"it={sol.iterations} steps={sol.newton_steps}/{sol.bisection_steps}  "
          f"guess off by {mp.nstr(guess_err, 3)}")

# the iterates narrow the bracket, which stays strictly around the root
sol = solve_delta(sd, 100)
lo, hi = sol.bracket
print()
print(f"n=100 final bracket: {mp.nstr(lo, 20)} < {mp.nstr(sol.delta, 20)} "
      f"< {mp.nstr(hi, 20)} after {sol.iterations} steps")

# two-pole model: the secondary pole perturbs the first guess; its
# correction term keeps the seed close enough for pure Newton
sd2 = derive_spectrum(make_preset("roots"))
for n in (10, 1000, 100000):
    sol = solve_delta(sd2, n)
    print(f"roots n={n}: delta={mp.nstr(sol.delta, 12)} in "
          f"{sol.iterations} iterations ({sol.bisection_steps} bisections)")
