# Deterministic decay rates: each multiplicative schedule (family A)
# drives |q_N| to zero like 1/N, and each mixed schedule (family B)
# shrinks the whole composition's distance to the identity at the same
# rate.  The resonant additive cases 4 and 5 converge too, but through
# A = D = -1, so their r_N marches to -1 rather than +1.
import os

from parimplode import TheoremA, TheoremB, fit_decay, run_sweep, write_rate_csv

LADDER = [100 * 2**j for j in range(8)]
OUT_DIR = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT_DIR, exist_ok=True)

print("family A (angle perturbations only): fitted slope of |q_N|")
for case in (1, 2, 3):
    points = run_sweep(TheoremA(case), LADDER, extended=True)
    fit = fit_decay(points, "q_N_abs")
    print(f"  case {case}: slope {fit.slope:+.4f}  r2={fit.r_squared:.4f}  "
          f"max N*|q_N| = {max(p.N * p.q_N_abs for p in points):.3f}")

print("\nfamily B (angle + additive eps): fitted slope of coeff_err")
for case in (1, 2, 3, 4, 5):
    points = run_sweep(TheoremB(case), LADDER, extended=True)
    fit = fit_decay(points, "coeff_err")
    r_last = points[-1].r_N_err
    print(f"  case {case}: slope {fit.slope:+.4f}  r2={fit.r_squared:.4f}  "
          f"r_N_err at top rung = {r_last:.3e}")
    csv_path = os.path.join(OUT_DIR, f"rates_B{case}.csv")
    write_rate_csv(points, csv_path)

print(f"\nper-N tables written to {OUT_DIR}/")
print("note: extended=True gives correctly rounded q and r at about 6x the cost;")
print("the plain binary64 kernel clears the same 1e-9 conservation gate on every rung")
