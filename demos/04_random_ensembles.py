# Random additive perturbations eps_k = pi/N + eta_k / N^(1+delta) with
# iid bounded eta.  The interesting empirical fact: the median of |q_N|
# scales like N^(1/2 - delta), i.e. the random walk in the martingale
# representation keeps its sqrt(n) character, where the band expects
# N^(-(1+delta)/2).  delta = 1/2 sits exactly at the flat boundary.  The
# Azuma union bound with the proof's lambda_n is >= 1 at every realistic
# N, so the exceedance columns below are reported against a vacuous bound.
# Each delta prints the band lines of
# `parimplode random --delta d --trials 200 --seed 1 --n 200:6400:x2`.
from parimplode import UniformSymmetric, run_ensemble
from parimplode.bands import ensemble_series, random_target, report

NS = [200, 400, 800, 1600, 3200, 6400]
TRIALS = 200

for delta in (0.25, 0.5, 1.0):
    summaries = run_ensemble(delta, UniformSymmetric(1.0), NS, trials=TRIALS, seed=1).summaries
    print(f"delta = {delta}")
    print("    N    median|qN|   q90|qN|    exceed  union bound")
    for s in summaries:
        flag = " (vacuous)" if s.azuma_bound >= 1 else ""
        print(f"  {s.N:5d}   {s.median_qN:.5f}    {s.q90_qN:.5f}   {s.exceed_count:4d}/{TRIALS}"
              f"   {s.azuma_bound:9.3g}{flag}")
    print(f"the median tracks N^(1/2 - delta) = N^{0.5 - delta:+.2f}")
    report("random", ensemble_series(summaries), random_target(delta), TRIALS)
    print()
