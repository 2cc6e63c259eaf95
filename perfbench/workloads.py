"""The four benchmark workloads: what one pass runs, and how its outputs are judged.

A pass is a list of operations run back to back by one closed-loop client
in this process: CLI commands go through ``parimplode.cli.main`` with their
output captured, and ``martingale_check``, which has no subcommand, is
called through the library.  Each workload also knows how many composed
Moebius steps and how many counted operations one pass performs, how to
tell a counted operation failure (a numerical-failure exit or a failed
trial) from an unexplained mismatch, and how far its reported values sit
from an exact reference.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import re
import statistics
from dataclasses import dataclass
from fractions import Fraction

import reference
import tracing
from parimplode import cli
from parimplode.errors import IdentityViolationError
from parimplode.randomlab import martingale_check
from parimplode.schedules import RandomSchedule, TheoremA, TheoremB, UniformSymmetric, materialize
from parimplode.skew import build_example, induced_schedule

ORACLE_GATE = 1e-9      # cmd_oracle's verdict on the worst projective deviation
MARTINGALE_GATE = 1e-8  # martingale_sum's identity tolerance
DELTAS = (0.25, 0.5, 1.0)
ORACLE_COMMANDS = 4
ACCURACY_SAMPLE = 32    # ensemble trials per (delta, N) checked against the reference


class Mismatch(Exception):
    """An output that is wrong in a way no counted operation failure explains."""


@dataclass(frozen=True)
class Size:
    sweep_ladder: str
    ensemble_ladder: str
    ensemble_trials: int
    oracle_trials: int
    oracle_n_max: int
    martingale_n: int
    martingale_trials: int


FULL = Size("100:12800:x2", "200:6400:x2", 200, 200, 512, 512, 30)
SMALL = Size("100:800:x2", "200:800:x2", 30, 20, 64, 64, 5)


@dataclass
class Result:
    """What one operation left behind: exit code (None for a library call),
    captured text, the bytes of every file it wrote, and a returned value."""

    label: str
    code: int | None
    stdout: str
    stderr: str
    files: dict
    value: object = None
    seconds: float = 0.0


@dataclass(frozen=True)
class CliOp:
    label: str
    argv: list
    outputs: tuple  # files the command writes

    def run(self) -> Result:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv)
        return Result(self.label, code, out.getvalue(), err.getvalue(), {})


@dataclass(frozen=True)
class MartingaleOp:
    label: str
    delta: float
    N: int
    trials: int
    seed: int

    outputs = ()

    def run(self) -> Result:
        try:
            value = martingale_check(self.delta, UniformSymmetric(1.0), self.N, self.trials, self.seed)
        except IdentityViolationError as exc:
            return Result(self.label, None, "", str(exc), {}, None)
        return Result(self.label, None, "", "", {}, value)


def run_pass(ops) -> list:
    return [op.run() for op in ops]


def collect(ops, results) -> None:
    """Attach the bytes of each operation's output files, then delete them."""
    for op, res in zip(ops, results):
        for path in op.outputs:
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    res.files[os.path.basename(path)] = fh.read()
                os.remove(path)


def fingerprint(results) -> list:
    """Everything a pass produced that must repeat byte for byte."""
    return [(r.label, r.code, r.stdout, r.stderr, sorted(r.files.items()), repr(r.value))
            for r in results]


def digits(worst_error: float) -> float:
    """-log10 of a relative error, capped at binary64's 17 significant digits."""
    return -math.log10(min(max(worst_error, 1e-17), 1e300))


def _rows(data: bytes) -> list:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def _sweep_spec(family: str):
    return (TheoremA if family[0] == "A" else TheoremB)(case=int(family[1:]))


def _same_csvs(results, outdir: str) -> None:
    """The replay must write exactly the CSV bytes the CLI wrote."""
    cli_csvs = {name: data for r in results for name, data in r.files.items() if name.endswith(".csv")}
    replay_csvs = {}
    for name in os.listdir(outdir):
        path = os.path.join(outdir, name)
        if name.endswith(".csv"):
            with open(path, "rb") as fh:
                replay_csvs[name] = fh.read()
        os.remove(path)
    _require(sorted(cli_csvs) == sorted(replay_csvs),
             f"replay wrote {sorted(replay_csvs)}, the CLI wrote {sorted(cli_csvs)}")
    for name, data in cli_csvs.items():
        _require(replay_csvs[name] == data, f"replay of {name} differs from the CLI's bytes")


class SweepWorkload:
    """Deterministic rate sweeps: ``sweep`` per family plus ``skew`` per example."""

    pool_layer = "convergence"

    def __init__(self, name: str, families, skew_examples, extended: bool, size: Size, seed: int):
        self.name = name
        self.seed = seed
        self.families = tuple(families)
        self.skew_examples = tuple(skew_examples)
        self.extended = extended
        self.ladder = size.sweep_ladder
        self.ns = cli.parse_ladder(self.ladder)
        self.commands = len(self.families) + len(self.skew_examples)
        self.steps_per_pass = self.commands * sum(self.ns)
        self.ops_per_pass = self.commands

    def ops(self, outdir: str, threads: int | None = None) -> list:
        # The sweeps are deterministic: the seed is recorded, not used.
        ext = ["--extended"] if self.extended else []
        threads_flag = [] if threads is None else ["--threads", str(threads)]
        ops = []
        for fam in self.families:
            stem = os.path.join(outdir, f"sweep-{fam}")
            ops.append(CliOp(f"sweep-{fam}",
                             ["sweep", "--theorem", fam[0], "--case", fam[1:], *ext,
                              "--n", self.ladder, "--out", stem + ".csv", "--svg", stem + ".svg",
                              *threads_flag],
                             (stem + ".csv", stem + ".svg")))
        for ex in self.skew_examples:
            stem = os.path.join(outdir, f"skew-{ex}")
            ops.append(CliOp(f"skew-{ex}",
                             ["skew", "--example", str(ex), *ext, "--n", self.ladder,
                              "--out", stem + ".csv", "--svg", stem + ".svg"],
                             (stem + ".csv", stem + ".svg")))
        return ops

    def judge(self, results) -> int:
        """Counted failures in one pass: commands that exit 2 on a numerical gate."""
        failed = 0
        for r in results:
            csv_name, svg_name = f"{r.label}.csv", f"{r.label}.svg"
            if r.code == 2:
                _require("numerical failure" in r.stderr and not r.files,
                         f"{r.label}: exit 2 without a numerical-failure report: {r.stderr!r}")
                failed += 1
                continue
            _require(r.code == 0, f"{r.label}: exit {r.code}: {r.stderr.strip()}")
            _require(csv_name in r.files and svg_name in r.files, f"{r.label}: missing CSV or SVG")
            ns = [int(row["N"]) for row in _rows(r.files[csv_name])]
            _require(ns == self.ns, f"{r.label}: CSV rungs {ns} differ from the ladder {self.ns}")
            _require(b"<svg" in r.files[svg_name], f"{r.label}: SVG output is not an SVG document")
        return failed

    def replay(self, tr, outdir: str, results) -> None:
        specs = [(f"sweep-{fam}", _sweep_spec(fam)) for fam in self.families]
        tracing.replay_sweeps(tr, specs, self.skew_examples, self.ladder, self.extended, outdir)
        _same_csvs(results, outdir)

    def references(self) -> dict:
        refs = {}
        for fam in self.families:
            spec = _sweep_spec(fam)
            refs[f"sweep-{fam}"] = {n: reference.rate_values(materialize(spec, n)) for n in self.ns}
        for ex in self.skew_examples:
            refs[f"skew-{ex}"] = {
                n: {"fiber_coeff_err": reference.rate_values(
                    induced_schedule(build_example(ex, n), n))["coeff_err"]}
                for n in self.ns}
        return refs

    def worst_error(self, results, refs) -> float:
        """Worst relative error of coeff_err and qN_abs (fiber_coeff_err for skew)
        over every CSV that was written; failed commands write none."""
        worst = 0.0
        for r in results:
            if r.code != 0:
                continue
            for row in _rows(r.files[f"{r.label}.csv"]):
                for field, ref in refs[r.label][int(row["N"])].items():
                    worst = max(worst, reference.relative_error(float(row[field]), ref))
        return worst


class CrosscheckWorkload:
    """``oracle`` over random small schedules, then ``martingale_check``.

    The 200 oracle trials per N run as ORACLE_COMMANDS commands of equal size,
    each with its own seed, so that no single command is much longer than a
    second: a calibration (see run.py) brackets each command, and over a
    two-second command the machine's speed drifts too far for two end
    points to describe it.
    """

    name = "crosscheck"
    pool_layer = None

    def __init__(self, size: Size, seed: int):
        self.seed = seed
        self.oracle_seeds = [ORACLE_COMMANDS * seed + i for i in range(ORACLE_COMMANDS)]
        self.trials = size.oracle_trials // ORACLE_COMMANDS
        self.n_max = size.oracle_n_max
        self.ns = [n for n in (16, 64, 256, 512) if n <= self.n_max]
        self.martingale_n = size.martingale_n
        self.martingale_trials = size.martingale_trials
        schedules = ORACLE_COMMANDS * self.trials
        self.steps_per_pass = schedules * sum(self.ns) + self.martingale_trials * self.martingale_n
        self.ops_per_pass = schedules * len(self.ns) + self.martingale_trials

    def ops(self, outdir: str, threads: int | None = None) -> list:
        # Neither operation takes a worker count.
        oracles = [CliOp(f"oracle-{s}", ["oracle", "--seed", str(s), "--trials", str(self.trials),
                                         "--n-max", str(self.n_max)], ())
                   for s in self.oracle_seeds]
        return oracles + [MartingaleOp("martingale", 0.5, self.martingale_n,
                                       self.martingale_trials, self.seed)]

    @staticmethod
    def oracle_deviation(result: Result) -> float:
        match = re.search(r"max projective deviation (\S+)", result.stdout)
        _require(match is not None, f"{result.label}: no deviation in output {result.stdout!r}")
        return float(match.group(1))

    def replay(self, tr, outdir: str, results) -> None:
        *oracles, mart = results
        worst, value = tracing.replay_crosscheck(
            tr, self.oracle_seeds, self.trials, self.ns,
            (0.5, UniformSymmetric(1.0), self.martingale_n, self.martingale_trials, self.seed))
        for text, oracle in zip(worst, oracles):
            if "max projective deviation" in oracle.stdout:
                _require(f"max projective deviation {text} " in oracle.stdout,
                         f"replayed worst deviation {text} differs from {oracle.stdout!r}")
        _require(repr(value) == repr(mart.value), "replayed martingale check differs")

    def references(self) -> None:
        return None

    def judge(self, results) -> int:
        """Counted failures: schedules over the oracle gate and martingale trials
        that raised.  The CLI reports only that some schedule failed, so the
        per-schedule check is re-run, outside any timed region, to count them."""
        *oracles, mart = results
        failed = 0
        for seed, oracle in zip(self.oracle_seeds, oracles):
            if oracle.code == 2:
                devs = tracing.oracle_deviations(tracing.Tracer(), seed, self.trials, self.ns)
                bad = sum(1 for dev in devs if not dev <= ORACLE_GATE)
                _require(bad > 0, f"{oracle.label}: exit 2 but every schedule passes the gate")
                failed += bad
            else:
                _require(oracle.code == 0, f"{oracle.label}: exit {oracle.code}: {oracle.stderr.strip()}")
                dev = self.oracle_deviation(oracle)
                _require(dev <= ORACLE_GATE, f"{oracle.label}: exit 0 with deviation {dev:.3e} over the gate")
        if mart.value is None:
            # martingale_check stops at the first violation, so no trial has a verdict.
            failed += self.martingale_trials
        else:
            resid = mart.value.max_identity_residual
            _require(resid <= MARTINGALE_GATE,
                     f"martingale: residual {resid:.3e} returned over the {MARTINGALE_GATE} gate")
        return failed

    def worst_error(self, results, refs) -> float:
        """No reference applies; the figure is the worst disagreement between
        the two independent computations the workload cross-checks."""
        *oracles, mart = results
        worst = max(self.oracle_deviation(o) if o.code == 0 else 1.0 for o in oracles)
        if mart.value is not None:
            worst = max(worst, float(mart.value.max_identity_residual))
        return worst


class EnsembleWorkload:
    """``random`` at three decay offsets over one ladder."""

    name = "ensemble"
    pool_layer = "randomlab"

    def __init__(self, size: Size, seed: int):
        self.seed = seed
        self.ladder = size.ensemble_ladder
        self.ns = cli.parse_ladder(self.ladder)
        self.trials = size.ensemble_trials
        self.steps_per_pass = len(DELTAS) * self.trials * sum(self.ns)
        self.ops_per_pass = len(DELTAS) * self.trials * len(self.ns)
        stride = max(1, self.trials // ACCURACY_SAMPLE)
        self.sample = list(range(0, self.trials, stride))[:ACCURACY_SAMPLE]

    def ops(self, outdir: str, threads: int | None = None) -> list:
        threads_flag = [] if threads is None else ["--threads", str(threads)]
        ops = []
        for d in DELTAS:
            stem = os.path.join(outdir, f"random-{d}")
            ops.append(CliOp(f"random-{d}",
                             ["random", "--delta", str(d), "--trials", str(self.trials),
                              "--seed", str(self.seed), "--n", self.ladder,
                              "--out-trials", stem + "-trials.csv",
                              "--out-summary", stem + "-summary.csv", "--svg", stem + ".svg",
                              *threads_flag],
                             (stem + "-trials.csv", stem + "-summary.csv", stem + ".svg")))
        return ops

    def judge(self, results) -> int:
        """Counted failures: trials the ensemble reports as failed."""
        failed = 0
        for r in results:
            _require(r.code == 0, f"{r.label}: exit {r.code}: {r.stderr.strip()}")
            match = re.search(r"failed trials: (\d+)", r.stderr)
            bad = int(match.group(1)) if match else 0
            trial_rows = _rows(r.files[f"{r.label}-trials.csv"])
            summary_rows = _rows(r.files[f"{r.label}-summary.csv"])
            _require(len(trial_rows) == self.trials * len(self.ns) - bad,
                     f"{r.label}: {len(trial_rows)} trial rows for {bad} failed trials")
            _require([int(row["N"]) for row in summary_rows] == self.ns,
                     f"{r.label}: summary rungs differ from the ladder {self.ns}")
            _require(b"<svg" in r.files[f"{r.label}.svg"], f"{r.label}: SVG output is not an SVG document")
            failed += bad
        return failed

    def replay(self, tr, outdir: str, results) -> None:
        tracing.replay_ensembles(tr, DELTAS, self.ladder, self.trials, self.seed, outdir)
        _same_csvs(results, outdir)

    def probe(self, tr) -> None:
        tracing.rng_probe(tr, DELTAS, self.ladder, self.trials, self.seed)

    def references(self) -> dict:
        dist = UniformSymmetric(1.0)
        return {(d, n, t): reference.additive_q_n(materialize(RandomSchedule(d, dist, self.seed, t), n))
                for d in DELTAS for n in self.ns for t in self.sample}

    def worst_error(self, results, refs) -> float:
        """Worst error of the sampled trials' q_N, relative to max(|q_N|, the
        median |q_N| of the sample at that (delta, N)).  Without the floor a
        single trial whose q_N passes near zero decides the figure, and the
        worst case over a sample swings by most of a digit from seed to seed."""
        worst = 0.0
        for d, r in zip(DELTAS, results):
            rows = {(int(row["N"]), int(row["trial"])): float(row["qN_re"])
                    for row in _rows(r.files[f"{r.label}-trials.csv"])}
            for n in self.ns:
                floor = Fraction(statistics.median(abs(refs[d, n, t]) for t in self.sample))
                for t in self.sample:
                    if (n, t) in rows:
                        worst = max(worst, reference.relative_error(rows[n, t], refs[d, n, t], floor))
        return worst


def make(name: str, size: Size, seed: int):
    if name == "sweep-extended":
        return SweepWorkload(name, ("A2", "B2", "B4"), (4,), True, size, seed)
    if name == "sweep-plain":
        return SweepWorkload(name, ("A1", "A2", "A3", "B1", "B2", "B3", "B4", "B5"), (), False, size, seed)
    if name == "crosscheck":
        return CrosscheckWorkload(size, seed)
    if name == "ensemble":
        return EnsembleWorkload(size, seed)
    raise ValueError(f"unknown workload {name!r}")
