"""Acceptance suite: one test per numbered criterion, one printed verdict line each.

Every band comes from ``parimplode.bands``, the same table ``--assert``
reads; only the timing clauses, and criterion 6's |q_N + 2i/pi|, live here.

Known failures in this build, kept red on purpose (the implementation is
faithful; the measured behavior genuinely differs from the target band):

* criterion 5: additive resonant cases 4 and 5 drive r_N to -1, not +1
  (the composite is projectively the identity through A = D = -1), so
  r_N_err converges to 2 instead of decaying.
* criterion 9: the median |q_N| of the random ensembles scales like
  N^(1/2 - delta) across every seed and delta, not N^(-(1+delta)/2).
* criterion 10: examples 2 and 3 cancel exactly, leaving fiber errors at
  the roundoff floor; noise grows with N, so no decay slope is fittable.
"""
import cmath
import math
import time

import numpy as np
import pytest

from parimplode import (
    CounterexampleC,
    PerturbationSequences,
    QuadraticNonconvergent,
    SkewExample,
    TheoremA,
    TheoremB,
    UniformSymmetric,
    build_example,
    closed_form_T_array,
    coefficients_from_qr,
    compose_chain,
    martingale_check,
    materialize,
    projective_distance,
    random_small_schedule,
    run_ensemble,
    run_point,
    run_recurrences,
    run_sweep,
    wronskian_residual,
)
from parimplode.bands import check, columns, random_target
from parimplode.cli import main
from parimplode.convergence import ORACLE_GATE
from parimplode.randomlab import MARTINGALE_GATE
from parimplode.recurrences import WRONSKIAN_GATE

from conftest import reference_plain

_LADDER = [100 * 2**j for j in range(8)]


def _report(capsys, num, name, ok, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line)
    if not ok:
        pytest.fail(line)


def _judge(criterion, series, **params):
    """The band clauses of ``criterion`` (parimplode.bands, the table
    ``--assert`` reads): whether all hold, and their details."""
    results = check(criterion, series, **params)
    return all(ok for ok, _ in results), ", ".join(detail for _, detail in results)


def test_criterion_01_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    worst, worst_at = 0.0, (0, 0)
    for n in (16, 64, 256, 512):
        for trial in range(200):
            seqs = random_small_schedule(n, seed=1, trial=trial)
            coeffs = coefficients_from_qr(run_recurrences(seqs), n)
            dev = projective_distance(coeffs, compose_chain(seqs.step_maps()))
            if dev > worst:
                worst, worst_at = dev, (n, trial)
    dt = time.perf_counter() - t0
    ok = worst <= ORACLE_GATE and dt <= 10.0
    _report(capsys, 1, "oracle equivalence", ok,
            f"max deviation {worst:.3e} at N={worst_at[0]} trial={worst_at[1]}, {dt:.1f}s")


def test_criterion_02_exact_identity(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for n in (10, 100, 1000, 10000):
        p = run_point(TheoremA(1, amplitude=0.0), n)
        worst = max(worst, p.coeff_err / (1e-9 * n))
        if p.coeff_err > 1e-9 * n:
            _report(capsys, 2, "exact identity", False,
                    f"coeff_err {p.coeff_err:.3e} > 1e-9*N at N={n}")
    dt = time.perf_counter() - t0
    _report(capsys, 2, "exact identity", dt <= 1.0,
            f"worst coeff_err/(1e-9 N) = {worst:.3f}, {dt:.2f}s")


def test_criterion_03_quadratic_nonconvergence(capsys):
    worst_mod, worst_next = 0.0, 0.0
    for n in (100, 1000, 10000):
        triple = run_recurrences(materialize(QuadraticNonconvergent(), n), extended=True)
        mod_err = abs(abs(triple.q[n]) - 1.0)
        next_err = abs(triple.q[n + 1])
        worst_mod = max(worst_mod, mod_err)
        worst_next = max(worst_next, next_err / (1e-8 * n))
        if mod_err > 1e-8 or next_err > 1e-8 * n:
            _report(capsys, 3, "quadratic non-convergence", False,
                    f"N={n}: ||q_N|-1|={mod_err:.3e}, |q_N+1|={next_err:.3e}")
    _report(capsys, 3, "quadratic non-convergence", True,
            f"max ||q_N|-1| = {worst_mod:.2e}, max |q_N+1|/(1e-8 N) = {worst_next:.3f}")


def test_criterion_04_theorem_a_rates(capsys):
    details, ok = [], True
    for case in (1, 2, 3):
        t0 = time.perf_counter()
        points = run_sweep(TheoremA(case), _LADDER, extended=True)
        dt = time.perf_counter() - t0
        bands_ok, detail = _judge("theorem_a", columns(points))
        ok = ok and bands_ok and dt <= 5.0
        details.append(f"case{case}: {detail}, {dt:.1f}s")
    _report(capsys, 4, "TheoremA rates", ok, "; ".join(details))


def test_criterion_05_theorem_b_rates(capsys):
    details, ok = [], True
    for case in (1, 2, 3, 4, 5):
        points = run_sweep(TheoremB(case), _LADDER, extended=True)
        bands_ok, detail = _judge("theorem_b", columns(points))
        ok = ok and bands_ok
        details.append(f"case{case}: {detail}"
                       + ("" if bands_ok else f" [r_N -> {points[-1].r_N_err:.3f}]"))
    _report(capsys, 5, "TheoremB rates", ok, "; ".join(details))


def test_criterion_06_counterexample_dichotomy(capsys):
    """The band clauses, plus |q_N + 2i/pi| <= 0.05 at N = 2000: the limit
    of the complex q_N, which no command reports, so it has no band."""
    t0 = time.perf_counter()
    ns = [500, 1000, 2000, 4000]
    f_points = run_sweep(CounterexampleC("multiplicative_f"), ns)
    g_points = run_sweep(CounterexampleC("additive_g"), ns)
    bands_ok, detail = _judge("counterexample", {
        "N": ns, "f_coeff_err": [p.coeff_err for p in f_points],
        "f_qN_abs": [p.q_N_abs for p in f_points], "g_coeff_err": [p.coeff_err for p in g_points]})
    n = 2000
    f_dev = abs(run_recurrences(materialize(CounterexampleC("multiplicative_f"), n)).q[n]
                + 2j / math.pi)
    dt = time.perf_counter() - t0
    ok = bands_ok and f_dev <= 0.05 and dt <= 2.0
    _report(capsys, 6, "counterexample dichotomy", ok,
            f"|q_N+2i/pi|={f_dev:.4f} at N={n}, {detail}, {dt:.1f}s")


def _worse(a, b):
    """The worse of two readings: the larger, or NaN if either is NaN, so
    that a NaN reading fails its bound as it does the gates in src."""
    return b if math.isnan(b) or b > a else a


def test_criterion_07_identity_residuals(capsys, difference_formula):
    # the kernel keeps only the tail at N, which the reference loop's
    # trajectory matches bit for bit; the identities read that trajectory
    worst = {"difference": 0.0, "r_from_qs": 0.0, "wronskian": 0.0, "telescoping": 0.0}
    trial = 0
    for n in (16, 32, 64, 128, 256):
        T = closed_form_T_array(n)
        rho = cmath.exp(2j * math.pi / n)
        tele = max(abs(T[k + 1] - T[k] - rho**k) for k in range(n + 1))
        worst["telescoping"] = _worse(worst["telescoping"], tele / (1e-10 * n))
        for _ in range(20):
            seqs = random_small_schedule(n, seed=2, trial=trial)
            trial += 1
            triple = reference_plain(seqs)
            for k in (2, n // 2, n, n + 1):
                resid = abs(triple.q[k] - T[k] - difference_formula(seqs, triple, k))
                worst["difference"] = _worse(worst["difference"], resid / (1e-8 * n))
            # r_k = q_k - rho_1 s_{k-1}, s the q of the schedule shifted one step ahead
            s = reference_plain(PerturbationSequences(seqs.rho[1:], seqs.eps_sq[1:], seqs.rho_base)).q
            r_resid = np.max(np.abs(triple.r[1:] - (triple.q[1:] - seqs.rho[1] * s)))
            worst["r_from_qs"] = _worse(worst["r_from_qs"], r_resid / (1e-9 * n))
            wr = wronskian_residual(run_recurrences(seqs), n)  # the kernel's own tail
            worst["wronskian"] = _worse(worst["wronskian"], wr / WRONSKIAN_GATE)
    chk = martingale_check(0.5, UniformSymmetric(1.0), N=256, trials=30, seed=3)
    mart = chk.max_identity_residual / MARTINGALE_GATE
    ok = all(v <= 1.0 for v in worst.values()) and mart <= 1.0
    _report(capsys, 7, "identity residuals", ok,
            "scaled residuals: " + ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
            + f", martingale {mart:.2e}")


def test_criterion_08_uniform_increments(capsys):
    specs = [("TheoremA2", TheoremA(2)), ("TheoremA3", TheoremA(3)),
             ("quadratic", QuadraticNonconvergent())]
    worst_inc, worst_mag, ok = 0.0, 0.0, True
    for name, spec in specs:
        for n in (100, 1000, 10000):
            q = reference_plain(materialize(spec, n)).q
            inc = float(np.max(np.abs(np.diff(q[1:]))))
            mag = float(np.max(np.abs(q))) / n
            worst_inc = _worse(worst_inc, inc)
            worst_mag = _worse(worst_mag, mag)
            if not (inc <= 10.0 and mag <= 2.0):  # written so that NaN fails
                ok = False
    _report(capsys, 8, "uniform increments", ok,
            f"max |q_k - q_k-1| = {worst_inc:.3f} (<= 10), max |q_k|/N = {worst_mag:.3f} (<= 2)")


def test_criterion_09_random_ensembles(capsys):
    ns = [200, 400, 800, 1600, 3200, 6400]
    details, ok = [], True
    for delta in (0.25, 0.5, 1.0):
        t0 = time.perf_counter()
        seed_details = []
        for seed in (1, 2, 3, 4, 5):
            res = run_ensemble(delta, UniformSymmetric(1.0), ns, trials=200, seed=seed)
            bands_ok, detail = _judge(
                "random", {"N": ns, "median_qN": [s.median_qN for s in res.summaries],
                           "exceed_frac": [s.exceed_count / s.trials for s in res.summaries],
                           "union_bound": [s.azuma_bound for s in res.summaries]},
                target=random_target(delta), trials=200)
            ok = ok and bands_ok
            seed_details.append(f"seed {seed}: {detail}")
        dt = time.perf_counter() - t0
        ok = ok and dt <= 60.0
        details.append(f"d={delta} vs target {random_target(delta):+.3f}: "
                       + "; ".join(seed_details)
                       + f" (measured law ~ N^{0.5 - delta:+.2f}), {dt:.1f}s")
    _report(capsys, 9, "random ensembles", ok, "; ".join(details))


def test_criterion_10_skew_examples(capsys):
    details, ok = [], True
    for ex in (1, 2, 3, 4, 5):
        points = run_sweep(SkewExample(ex), _LADDER, extended=True)
        bands_ok, detail = _judge("skew_exact" if ex == 1 else "skew", {
            "N": _LADDER, "fiber_coeff_err": [p.coeff_err for p in points],
            "|w_N|": [abs(build_example(ex, n).w_final(n)) for n in _LADDER]})
        ok = ok and bands_ok
        details.append(f"ex{ex}: {detail}")
    _report(capsys, 10, "skew examples", ok, "; ".join(details))


def test_criterion_11_csv_determinism(capsys, tmp_path):
    sweep_a, sweep_b = tmp_path / "sa.csv", tmp_path / "sb.csv"
    assert main(["sweep", "--theorem", "B", "--case", "2", "--n", "100:800:x2",
                 "--out", str(sweep_a)]) == 0
    assert main(["sweep", "--theorem", "B", "--case", "2", "--n", "100:800:x2",
                 "--out", str(sweep_b)]) == 0
    rt_a, rs_a = tmp_path / "ta.csv", tmp_path / "ua.csv"
    rt_b, rs_b = tmp_path / "tb.csv", tmp_path / "ub.csv"
    args = ["random", "--delta", "0.5", "--trials", "200", "--seed", "1", "--n", "200:800:x2"]
    assert main(args + ["--out-trials", str(rt_a), "--out-summary", str(rs_a)]) == 0
    assert main(args + ["--out-trials", str(rt_b), "--out-summary", str(rs_b)]) == 0
    same = (sweep_a.read_bytes() == sweep_b.read_bytes()
            and rt_a.read_bytes() == rt_b.read_bytes()
            and rs_a.read_bytes() == rs_b.read_bytes())
    _report(capsys, 11, "CSV determinism", same,
            f"sweep {sweep_a.stat().st_size}B and random trials {rt_a.stat().st_size}B "
            f"byte-identical across reruns")
