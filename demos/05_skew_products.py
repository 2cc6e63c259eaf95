# Skew products: a rigid base orbit w_k = mu^k w_0 drives the fiber's
# rotation angle (and sometimes its additive part).  Every preset has
# |mu| = 1, so the base never decays; convergence happens because w_0
# itself shrinks with N.  Examples 2 and 3 are perfectly self-cancelling:
# their fiber composition is the identity up to roundoff, which is why
# the table shows raw noise rather than a clean rate.
from parimplode import SkewExample, build_example, fit_loglog, run_sweep

LADDER = [100, 200, 400, 800, 1600, 3200, 6400, 12800]

for ex in (1, 2, 3, 4, 5):
    errs = [p.coeff_err for p in run_sweep(SkewExample(ex), LADDER, extended=True)]
    w_abs = [abs(build_example(ex, n).w_final(n)) for n in (LADDER[0], LADDER[-1])]
    try:
        slope = f"{fit_loglog(LADDER, errs).slope:+.3f}"
    except ValueError:
        slope = "  n/a"
    print(f"example {ex}:  fiber_coeff_err {errs[0]:.2e} -> {errs[-1]:.2e}"
          f"   slope {slope}   |w_N| {w_abs[0]:.1e} -> {w_abs[1]:.1e}")

print("\nexamples 4 and 5 carry real additive perturbations and decay like 1/N;")
print("example 1 collapses to the exact rotation (errors at the 1e-10 scale);")
print("examples 2 and 3 cancel exactly, so their 'errors' are accumulation noise")
