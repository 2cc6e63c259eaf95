# One schedule, two readings.  The split-angle schedule jumps its angle
# from pi/(N-1) to pi/(N+1) halfway through.  Realized multiplicatively
# (angles in rho) the composition stalls: q_N converges to -2i/pi, a
# definite distance from the convergent value.  Realized additively
# (the same angles fed through eps = 2 sin(theta/2) with rho = 1) the
# composition converges like any other admissible schedule.  The band
# lines are those of `parimplode counterexample --n 500:4000:x2`.
import math

from parimplode import CounterexampleC, materialize, run_recurrences, run_sweep
from parimplode.bands import counterexample_series, report

N = 2000
triple = run_recurrences(materialize(CounterexampleC("multiplicative_f"), N))
target = -2j / math.pi
print(f"multiplicative side at N={N}:")
print(f"  q_N       = {triple.q[N]:.6f}")
print(f"  -2i/pi    = {target:.6f}")
print(f"  |q_N - (-2i/pi)| = {abs(triple.q[N] - target):.2e}")
print(f"  |q_N| = {abs(triple.q[N]):.4f}  stays above 1/pi - 0.05 = {1 / math.pi - 0.05:.4f}")

ladder = [500, 1000, 2000, 4000]
f_pts = run_sweep(CounterexampleC("multiplicative_f"), ladder)
g_pts = run_sweep(CounterexampleC("additive_g"), ladder)
print("\n   N      f coeff_err    g coeff_err")
for fp, gp in zip(f_pts, g_pts):
    print(f"{fp.N:6d}   {fp.coeff_err:.6f}     {gp.coeff_err:.6f}")

print()
report("counterexample", counterexample_series(f_pts, g_pts))
print("the additive realization (g) converges; the multiplicative one (f) is pinned")
print("near 2/pi no matter how large N gets")
