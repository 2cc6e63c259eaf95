# Random additive perturbations eps_k = pi/N + eta_k / N^(1+delta) with
# iid bounded eta.  The interesting empirical fact: the median of |q_N|
# scales like N^(1/2 - delta), i.e. the random walk in the martingale
# representation keeps its sqrt(n) character.  delta = 1/2 sits exactly
# at the flat boundary.  The Azuma union bound with the proof's
# lambda_n is >= 1 at every realistic N, so the exceedance columns
# below are reported against a vacuous bound.
from parimplode import UniformSymmetric, fit_loglog, run_ensemble

NS = [200, 400, 800, 1600, 3200, 6400]
TRIALS = 200

for delta in (0.25, 0.5, 1.0):
    result = run_ensemble(delta, UniformSymmetric(1.0), NS, trials=TRIALS, seed=1)
    slope = fit_loglog(NS, [s.median_qN for s in result.summaries]).slope
    print(f"delta = {delta}")
    print("    N    median|qN|   q90|qN|    exceed  union bound")
    for s in result.summaries:
        flag = " (vacuous)" if s.azuma_bound >= 1 else ""
        print(f"  {s.N:5d}   {s.median_qN:.5f}    {s.q90_qN:.5f}   {s.exceed_count:4d}/{TRIALS}"
              f"   {s.azuma_bound:9.3g}{flag}")
    print(f"  median slope {slope:+.4f}   vs  N^(1/2 - delta) = N^{0.5 - delta:+.2f}\n")
