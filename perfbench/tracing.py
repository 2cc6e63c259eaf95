"""Spans recorded around the package's public calls, and the traced replays.

Nothing inside the package is instrumented.  A traced replay re-runs one
pass of a workload through the same public calls, in the same order, that
``run_point``, ``cmd_oracle`` and ``run_ensemble`` make, one worker at a
time, with a span around each call.  Spans stay in memory until the run
ends.  A span's self time is its duration minus its children's, and each
layer metric sums the self times of that layer's spans.
"""
from __future__ import annotations

import math
import os
import statistics
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from parimplode.cli import parse_ladder
from parimplode.convergence import DEFAULT_ORACLE_LIMIT, RatePoint, fit_loglog, write_rate_csv
from parimplode.errors import DegenerateMapError, IdentityViolationError, OracleMismatchError, ParimplodeError
from parimplode.ioutil import atomic_write_text
from parimplode.mobius import (
    EvalRegion,
    compose_chain,
    identity_distance,
    projective_coeff_error,
    projective_distance,
)
from parimplode.randomlab import martingale_check, run_ensemble, write_summary_csv, write_trial_csv
from parimplode.recurrences import coefficients_from_qr, run_recurrences, wronskian_residual
from parimplode.schedules import Custom, TheoremA, UniformSymmetric, materialize, random_small_schedule
from parimplode.skew import SkewOrbitResult, build_example, induced_schedule, write_skew_csv
from parimplode.svgplot import loglog_svg

WRONSKIAN_GATE = 1e-9   # run_point's gate on the Wronskian residual
CHAIN_GATE = 1e-8       # run_point's gate on the oracle deviation
RESIDUAL_FLOOR = 1e-17  # residuals below binary64 rounding count as exact
REGION = EvalRegion()


class Tracer:
    """Spans ``[name, start, end, parent]`` plus counters, kept in memory."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.counts = Counter()
        self.worst_wronskian = 0.0

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        record = [name, time.perf_counter(), 0.0, parent]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def self_times(self, first: int, end: int, scale: float) -> Counter:
        """Scaled self time per span name, over spans ``first`` to ``end - 1``."""
        own = Counter()
        for name, start, stop, parent in self.spans[first:end]:
            own[name] += (stop - start) * scale
            if parent >= first:
                own[self.spans[parent][0]] -= (stop - start) * scale
        return own


# -- the pieces of run_point ----------------------------------------------------


def _oracle(tr: Tracer, seqs, coeffs, N: int) -> float:
    with tr.span("mobius.step_maps"):
        maps = seqs.step_maps()
    with tr.span("mobius.chain"):
        chain = compose_chain(maps)
        dev = projective_distance(coeffs, chain)
    tr.counts["mobius.checked"] += 1
    tr.counts["mobius.chain_steps"] += N
    return dev


def _coefficients(tr: Tracer, seqs, N: int, extended: bool):
    kernel = "recurrences.extended" if extended else "recurrences.plain"
    with tr.span(kernel):
        triple = run_recurrences(seqs, extended=extended)
    tr.counts[kernel + ".steps"] += N
    with tr.span("recurrences.coeffs"):
        coeffs = coefficients_from_qr(triple, N)
        wr = wronskian_residual(triple, N)
    tr.worst_wronskian = max(tr.worst_wronskian, wr)
    return triple, coeffs, wr


def _point(tr: Tracer, spec, N: int, extended: bool) -> RatePoint:
    tr.counts["mobius.rungs"] += 1
    with tr.span("schedules.materialize"):
        seqs = materialize(spec, N)
    triple, coeffs, wr = _coefficients(tr, seqs, N, extended)
    if wr > WRONSKIAN_GATE:
        raise OracleMismatchError(f"Wronskian residual {wr:.3e} at N={N} exceeds {WRONSKIAN_GATE}")
    if N <= DEFAULT_ORACLE_LIMIT:
        dev = _oracle(tr, seqs, coeffs, N)
        if dev > CHAIN_GATE:
            raise OracleMismatchError(f"recurrence vs chain deviation {dev:.3e} at N={N}")
    with tr.span("mobius.identity_distance"):
        sup, skipped = identity_distance(coeffs, REGION)
        coeff_err = projective_coeff_error(coeffs)
    tr.counts["mobius.pole_skipped"] += skipped
    q, r = triple.q, triple.r
    return RatePoint(N=N, coeff_err=coeff_err, sup_err=sup, q_N_abs=abs(q[N]),
                     q_N1_err=abs(q[N + 1] - 1.0), r_N_err=abs(r[N] - 1.0),
                     r_N1_err=abs(r[N + 1] - 1.0), wronskian_resid=wr)


def _ladder(tr: Tracer, spec_for, ns, extended: bool, stop_at_failure: bool):
    """Points of one command, or None when a point failed (the CLI then exits 2
    and writes nothing).  ``run_sweep`` attempts every point; ``cmd_skew`` stops
    at the first failure."""
    points, failed = [], False
    for n in ns:
        tr.counts["convergence.points"] += 1
        try:
            points.append(_point(tr, spec_for(n), n, extended))
        except (ParimplodeError, ValueError):
            tr.counts["convergence.points_failed"] += 1
            failed = True
            if stop_at_failure:
                break
    return None if failed else points


def _write_csv(tr: Tracer, writer, rows, path: str) -> None:
    with tr.span("ioutil.csv"):
        writer(rows, path)
    tr.counts["ioutil.csv_bytes"] += os.path.getsize(path)


def _plot(tr: Tracer, path: str, series, title: str, ylabel: str, band) -> None:
    """The CLI's fit (positive values only, at least three) and SVG."""
    _, xs, ys = series[0]
    positive = [(x, y) for x, y in zip(xs, ys) if y > 0]
    fit = None
    if len(positive) >= 3:
        with tr.span("convergence.fit"):
            f = fit_loglog([x for x, _ in positive], [y for _, y in positive])
        fit = (f.slope, f.intercept)
    with tr.span("svgplot.svg"):
        atomic_write_text(path, loglog_svg(series, title=title, ylabel=ylabel, fit=fit, band=band))


# -- replays, one per workload kind ---------------------------------------------


def replay_sweeps(tr: Tracer, specs, skew_examples, ladder: str, extended: bool, outdir: str) -> None:
    """``sweep`` per (label, spec) then ``skew`` per example, as the CLI runs them."""
    ns = parse_ladder(ladder)
    for label, spec in specs:
        with tr.span("cmd.sweep"):
            points = _ladder(tr, lambda n: spec, ns, extended, stop_at_failure=False)
            if points is None:
                continue
            stem = os.path.join(outdir, label)
            _write_csv(tr, write_rate_csv, points, stem + ".csv")
            field = "q_N_abs" if isinstance(spec, TheoremA) else "coeff_err"
            band = (-1.4, -0.8) if isinstance(spec, TheoremA) else (-1.4, -0.6)
            _plot(tr, stem + ".svg", [(field, ns, [getattr(p, field) for p in points])],
                  f"sweep {type(spec).__name__}", field, band)
    for ex in skew_examples:
        def skew_spec(n, ex=ex):
            with tr.span("skew.induced_schedule"):
                seqs = induced_schedule(build_example(ex, n), n)
                return Custom(rho=np.array(seqs.rho), eps_sq=np.array(seqs.eps_sq),
                              rho_base=seqs.rho_base)

        with tr.span("cmd.skew"):
            points = _ladder(tr, skew_spec, ns, extended, stop_at_failure=True)
            if points is None:
                continue
            rows = []
            for p in points:
                system = build_example(ex, p.N)
                w_final = complex(system.w0_rule(p.N)) * complex(system.base_multiplier) ** p.N
                rows.append((ex, SkewOrbitResult(p.N, w_final, p.coeff_err, p.sup_err)))
            stem = os.path.join(outdir, f"skew-{ex}")
            _write_csv(tr, write_skew_csv, rows, stem + ".csv")
            _plot(tr, stem + ".svg", [(f"example {ex}", ns, [p.coeff_err for p in points])],
                  f"skew example {ex}", "fiber_coeff_err", None)


def oracle_deviations(tr: Tracer, seed: int, trials: int, ns) -> list:
    """``cmd_oracle``'s per-schedule deviations; a degenerate map counts as inf."""
    devs = []
    for n in ns:
        for trial in range(trials):
            tr.counts["mobius.rungs"] += 1
            with tr.span("schedules.random_small"):
                seqs = random_small_schedule(n, seed, trial)
            try:
                _, coeffs, _ = _coefficients(tr, seqs, n, extended=False)
            except DegenerateMapError:
                devs.append(math.inf)
                continue
            devs.append(_oracle(tr, seqs, coeffs, n))
    return devs


def replay_crosscheck(tr: Tracer, oracle_seeds, trials: int, ns, martingale_args) -> tuple:
    """Each oracle command's worst deviation as the CLI prints it, and the
    martingale result."""
    worst = []
    for seed in oracle_seeds:
        with tr.span("cmd.oracle"):
            worst.append(f"{max(oracle_deviations(tr, seed, trials, ns)):.3e}")
    with tr.span("cmd.martingale"), tr.span("randomlab.martingale"):
        try:
            value = martingale_check(*martingale_args)
        except IdentityViolationError:
            value = None
    return worst, value


def replay_ensembles(tr: Tracer, deltas, ladder: str, trials: int, seed: int, outdir: str) -> None:
    """``random`` per delta, with ``run_ensemble`` called one rung at a time."""
    ns = parse_ladder(ladder)
    dist = UniformSymmetric(1.0)
    for d in deltas:
        with tr.span("cmd.random"):
            summaries, records = [], []
            for n in ns:
                with tr.span("randomlab.batch"):
                    res = run_ensemble(d, dist, [n], trials, seed, max_workers=1)
                summaries += res.summaries
                records += res.records
                tr.counts["randomlab.trial_steps"] += trials * n
                tr.counts["randomlab.trials_failed"] += len(res.failures)
            stem = os.path.join(outdir, f"random-{d}")
            _write_csv(tr, write_trial_csv, records, stem + "-trials.csv")
            _write_csv(tr, write_summary_csv, summaries, stem + "-summary.csv")
            target = -(1 + d) / 2
            _plot(tr, stem + ".svg",
                  [("median |qN|", ns, [s.median_qN for s in summaries]),
                   ("q90 |qN|", ns, [s.q90_qN for s in summaries])],
                  f"random delta={d}", "|q_N| quantiles", (target - 0.2, target + 0.2))


def rng_probe(tr: Tracer, deltas, ladder: str, trials: int, seed: int) -> None:
    """``dist.draw`` at the shape ``run_ensemble`` draws, once per (delta, N).

    run_ensemble draws inside the batch span; this probe, run outside the
    replay, measures that share so it can be moved from randomlab to rng.
    """
    dist = UniformSymmetric(1.0)
    t_idx = np.arange(trials, dtype=np.uint64)
    for _ in deltas:
        for n in parse_ladder(ladder):
            k_idx = np.arange(n + 2, dtype=np.uint64)
            with tr.span("rng.draw"):
                dist.draw(seed, t_idx[:, None], k_idx[None, :])
            tr.counts["rng.variates"] += trials * (n + 2)


# -- per-layer metrics ----------------------------------------------------------

_LAYER_TIMES = {
    "recurrences.extended_s": "recurrences.extended",
    "recurrences.plain_s": "recurrences.plain",
    "recurrences.coeffs_s": "recurrences.coeffs",
    "mobius.step_maps_s": "mobius.step_maps",
    "mobius.chain_s": "mobius.chain",
    "mobius.identity_distance_s": "mobius.identity_distance",
    "schedules.materialize_s": "schedules.materialize",
    "schedules.random_small_s": "schedules.random_small",
    "randomlab.martingale_s": "randomlab.martingale",
    "convergence.fit_s": "convergence.fit",
    "skew.induced_schedule_s": "skew.induced_schedule",
    "ioutil.csv_s": "ioutil.csv",
    "svgplot.svg_s": "svgplot.svg",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tr: Tracer, replays, probe, serial_wall: float, pooled_wall: float,
                  pool_layer: str | None) -> dict:
    """Per-pass layer figures from the traced replays.

    ``replays`` and ``probe`` are ``(first span, end span, scale)`` ranges,
    where scale turns raw seconds into seconds at the calibration's
    reference speed.  ``serial_wall`` and ``pooled_wall`` are the median
    untraced CLI passes at one worker and at the default worker count, in
    the same scaled seconds.  Layers a workload does not exercise read 0.
    """
    n = len(replays)
    own = Counter()
    for first, end, scale in replays:
        own.update(tr.self_times(first, end, scale))
    per = {name: t / n for name, t in own.items()}
    count = {name: c / n for name, c in tr.counts.items()}
    m = {metric: per.get(span, 0.0) for metric, span in _LAYER_TIMES.items()}

    # The rng probe ran once, outside the replays; run_ensemble draws inside
    # the batch spans, so the probe's time is moved there, not added.
    draw = tr.self_times(*probe)["rng.draw"] if probe else 0.0
    m["rng.draw_s"] = draw
    m["rng.variates_per_s"] = _ratio(tr.counts["rng.variates"], draw)
    m["randomlab.batch_s"] = max(0.0, per.get("randomlab.batch", 0.0) - draw)
    m["randomlab.trial_steps_per_s"] = _ratio(count.get("randomlab.trial_steps", 0),
                                              per.get("randomlab.batch", 0.0))
    m["randomlab.trials_failed"] = count.get("randomlab.trials_failed", 0)

    for kernel in ("extended", "plain"):
        steps = count.get(f"recurrences.{kernel}.steps", 0)
        m[f"recurrences.{kernel}_ns_per_step"] = _ratio(m[f"recurrences.{kernel}_s"] * 1e9, steps)
    m["recurrences.steps"] = count.get("recurrences.extended.steps", 0) + count.get("recurrences.plain.steps", 0)
    m["recurrences.wronskian_headroom_digits"] = (
        math.log10(WRONSKIAN_GATE / max(tr.worst_wronskian, RESIDUAL_FLOOR))
        if m["recurrences.steps"] else 0.0)

    m["mobius.chain_steps"] = count.get("mobius.chain_steps", 0)
    m["mobius.oracle_coverage"] = _ratio(count.get("mobius.checked", 0), count.get("mobius.rungs", 0))
    m["mobius.pole_skipped"] = count.get("mobius.pole_skipped", 0)
    m["convergence.points"] = count.get("convergence.points", 0)
    m["convergence.points_failed"] = count.get("convergence.points_failed", 0)
    m["ioutil.csv_bytes"] = count.get("ioutil.csv_bytes", 0)

    speedup = _ratio(serial_wall, pooled_wall)
    m["convergence.pool_speedup"] = speedup if pool_layer == "convergence" else 0.0
    m["randomlab.pool_speedup"] = speedup if pool_layer == "randomlab" else 0.0
    m["cli.serial_wall_s"] = serial_wall
    m["cli.pooled_wall_s"] = pooled_wall
    layer_total = sum(t for name, t in per.items() if not name.startswith(("cmd.", "pass")))
    m["cli.overhead_s"] = serial_wall - layer_total
    replay_wall = statistics.median((tr.spans[first][2] - tr.spans[first][1]) * scale
                                    for first, _, scale in replays)
    m["trace.overhead_frac"] = replay_wall / serial_wall - 1.0
    return m
