# Deterministic decay rates: each multiplicative schedule (family A)
# drives |q_N| to zero like 1/N, and each mixed schedule (family B)
# shrinks the whole composition's distance to the identity at the same
# rate.  The resonant additive cases 4 and 5 converge too, but through
# A = D = -1, so their r_N marches to -1 rather than +1: their r_N_err
# clauses read a flat slope.  Each case prints the band lines of
# `parimplode sweep --theorem A|B --case c --extended --n 100:12800:x2`.
import os

from parimplode import TheoremA, TheoremB, run_sweep, write_rate_csv
from parimplode.bands import columns, report

LADDER = [100 * 2**j for j in range(8)]
OUT_DIR = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT_DIR, exist_ok=True)

for letter, family, criterion, cases in (("A", TheoremA, "theorem_a", (1, 2, 3)),
                                         ("B", TheoremB, "theorem_b", (1, 2, 3, 4, 5))):
    for case in cases:
        name = f"{letter}{case}"
        print(f"{name}:")
        points = run_sweep(family(case), LADDER, extended=True)
        report(criterion, columns(points))
        write_rate_csv(points, os.path.join(OUT_DIR, f"rates_{name}.csv"))

print(f"\nper-N tables written to {OUT_DIR}/")
print("note: extended=True gives correctly rounded q and r; the periodic schedules")
print("(A1, A2, B1, B2 and B4) are raised to their power.  README gives what a rung")
print("costs on each path.  The plain binary64 kernel clears the same 1e-9")
print("conservation gate on every rung")
