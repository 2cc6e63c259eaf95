# Exact-rotation sanity check: with no perturbation at all, composing N
# steps of the 1/N rotation returns to the identity map, and the partial
# compositions trace the geometric sums T_k = (1 - rho^k)/(1 - rho).
import sys

import numpy as np

from parimplode import (PerturbationSequences, TheoremA, closed_form_T_array, materialize, run_point,
                        run_recurrences)

for N in (10, 100, 1000, 10000):
    point = run_point(TheoremA(1, amplitude=0.0), N)
    print(f"N={N:6d}  coeff_err={point.coeff_err:.3e}  "
          f"(budget 1e-9*N = {1e-9 * N:.0e})  wronskian={point.wronskian_resid:.3e}")

# the whole orbit, not just the endpoint: q_k follows T_k step for step.  The
# kernel returns only the tail q_n, q_n+1 of an n-step run, so q_k is read
# from the run of the first k steps of the same schedule, k = 1..N.
N = 256
seqs = materialize(TheoremA(1, amplitude=0.0), N)
q = np.zeros(N + 2, dtype=complex)  # q_0 = 0
for n in range(1, N + 1):
    prefix = PerturbationSequences(seqs.rho[:n + 2], seqs.eps_sq[:n + 2], seqs.rho_base)
    q[n:n + 2] = run_recurrences(prefix).q[n:]
dev = np.max(np.abs(q - closed_form_T_array(N)))
print(f"\norbit vs closed form at N={N}: max |q_k - T_k| = {dev:.3e}")
print(f"checkpoints: q_N = {q[N]:.3e} (exact limit 0), "
      f"q_N+1 = {q[N + 1]:.6f} (exact limit 1)")
if not np.isfinite(dev):
    sys.exit(f"the orbit is not finite: max |q_k - T_k| = {dev}")
