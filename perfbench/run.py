"""parimplode benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  With ``--trace 0`` the run
measures the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
measures the per-layer metrics through a traced replay.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  An output mismatch that no counted operation
failure explains ends the run with exit code 3 and no result line.  A run
manifest (environment, pass times, metrics and, when traced, the spans) is
written to ``perfbench/out/``.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
SRC = ROOT / "src"
MIN_PASSES = 3
SETUP_PROBES = 7
# Roughly the seconds the calibration mix takes on an idle vCPU of the 2-vCPU,
# 2.1 GHz virtual machine the README's figures come from; scaled times are
# reported at that speed.
CALIBRATION_REF_S = 0.03
# A fresh interpreter's set-up, up to where a CLI pass could start.
SETUP_PROBE = "import time, parimplode.cli; parimplode.cli.build_parser(); print(time.monotonic())"


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_package():
    """Import parimplode from this checkout's src/ and the benchmark's modules."""
    sys.path.insert(0, str(SRC))
    try:
        import parimplode
    except ImportError as exc:
        fail(f"cannot import parimplode from {SRC}: {exc}")
    if Path(parimplode.__file__).resolve().parent != SRC / "parimplode":
        fail(f"parimplode was imported from {parimplode.__file__}, not from {SRC}")
    import tracing
    import workloads
    return parimplode, workloads, tracing


def declared_metrics(trace: int) -> dict:
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable"


def calibrate() -> float:
    """Seconds for a fixed mix of interpreted float arithmetic and strided
    column updates of a 10 MB array, the two kinds of work the workloads do.
    It runs no package code, so a change to the package cannot move it."""
    start = time.perf_counter()
    s = c = 0.0
    for i in range(200000):
        y = 1e-9 * i - c
        t = s + y
        c = (t - s) - y
        s = t
    x = numpy.ones((200, 6402))
    for k in range(1, 2000):
        x[:, k + 1] = x[:, k] * 1.0000001 - x[:, k - 1] * 0.5
    return time.perf_counter() - start


class Clock:
    """Wall times, each also scaled to the reference speed of the calibration mix.

    On a shared virtual machine (the README's figures come from one with 2
    vCPUs) speed swings by up to a factor of two within seconds and drifts
    over minutes.  The calibration mix runs right before and right after
    every timed interval (a CLI command, a replay, a set-up probe), and the
    interval's wall time is scaled by CALIBRATION_REF_S over the mean of the
    two.  Raw times are kept in the run manifest.
    """

    def __init__(self):
        self.last = calibrate()
        self.calibrations = [self.last]

    def scaled(self, raw: float) -> float:
        """Scale an interval that ended just now."""
        before, self.last = self.last, calibrate()
        self.calibrations.append(self.last)
        return raw * CALIBRATION_REF_S / ((before + self.last) / 2.0)


def setup_seconds(clock: Clock) -> float:
    """Median time for a fresh interpreter to import the package and build the CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(clock.scaled(float(proc.stdout.split()[-1]) - start))
    return statistics.median(times)


class Runner:
    """Runs CLI passes of one workload and checks each against the first."""

    def __init__(self, wl, warm_wl, workloads, clock: Clock, workdir: Path):
        self.wl = wl
        self.warm_wl = warm_wl
        self.w = workloads
        self.clock = clock
        self.outdir = workdir / "cli"
        self.outdir.mkdir()
        self.passes = 0
        self.first = None
        self.failed_per_pass = 0

    def warm(self) -> None:
        """One reduced-size pass, so lazy set-up is done before any timing."""
        ops = self.warm_wl.ops(str(self.outdir))
        self.w.collect(ops, self.w.run_pass(ops))

    def one(self, threads=None):
        """One timed pass: (raw wall, scaled wall, per-operation results).

        Each operation is timed and scaled on its own, so the calibration
        brackets at most one command; the pass's time is their sum."""
        ops = self.wl.ops(str(self.outdir), threads)
        results, raw, scaled = [], 0.0, 0.0
        for op in ops:
            start = time.perf_counter()
            res = op.run()
            res.seconds = time.perf_counter() - start
            raw += res.seconds
            scaled += self.clock.scaled(res.seconds)
            results.append(res)
        self.w.collect(ops, results)
        self.passes += 1
        if self.first is None:
            self.first = results
            self.expected = self.w.fingerprint(results)
            self.failed_per_pass = self.wl.judge(results)
        elif self.w.fingerprint(results) != self.expected:
            raise self.w.Mismatch("a pass produced different outputs from the first pass")
        return raw, scaled, results

    def timed(self, seconds: float, min_passes: int, threads=None) -> dict:
        """Passes until the next one would end past ``seconds``, and at least
        ``min_passes`` of them."""
        raws, scaled, lengths, per_op = [], [], [], {}
        start = time.monotonic()
        while len(raws) < min_passes or (
                time.monotonic() - start + statistics.median(lengths) <= seconds):
            begin = time.monotonic()
            raw, s, results = self.one(threads)
            lengths.append(time.monotonic() - begin)
            raws.append(raw)
            scaled.append(s)
            for r in results:
                per_op.setdefault(r.label, []).append(r.seconds)
        return {"raw_s": raws, "scaled_s": scaled,
                "op_median_raw_s": {label: statistics.median(v) for label, v in per_op.items()}}

    @property
    def attempted(self) -> int:
        return self.passes * self.wl.ops_per_pass

    @property
    def failed(self) -> int:
        return self.passes * self.failed_per_pass


def untraced(wl, workloads, runner: Runner, seconds: float, record: dict) -> dict:
    setup = setup_seconds(runner.clock)
    refs = wl.references()
    runner.warm()
    passes = runner.timed(seconds, MIN_PASSES)
    accuracy = workloads.digits(wl.worst_error(runner.first, refs))
    wall = statistics.median(passes["scaled_s"])
    record.update(passes=passes, raw_wall_s=statistics.median(passes["raw_s"]))
    return {
        "wall_s": wall,
        "steps_per_s": wl.steps_per_pass / wall,
        "ok_frac": 1.0 - runner.failed / runner.attempted,
        "accuracy_digits": accuracy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup,
    }


def traced(wl, workloads, tracing, runner: Runner, seconds: float, workdir: Path, record: dict) -> dict:
    runner.warm()
    # The time is split evenly between untraced passes at the default worker
    # count, at one worker (only where a pool exists) and traced replays.
    phase = seconds / (3.0 if wl.pool_layer else 2.0)
    pooled = runner.timed(phase, 1)
    serial = runner.timed(phase, 1, threads=1) if wl.pool_layer else pooled
    tr = tracing.Tracer()
    replay_dir = workdir / "replay"
    replay_dir.mkdir()

    def segment(fn):
        """Run fn; return its spans' range and the factor that scales its time."""
        first = len(tr.spans)
        begin = time.perf_counter()
        fn()
        raw = time.perf_counter() - begin
        return first, len(tr.spans), runner.clock.scaled(raw) / raw

    def replay():
        with tr.span("pass"):
            wl.replay(tr, str(replay_dir), runner.first)

    replays = []
    start = time.monotonic()
    while not replays or time.monotonic() - start < phase:
        replays.append(segment(replay))
    probe = segment(lambda: wl.probe(tr)) if hasattr(wl, "probe") else None
    record.update(pooled=pooled, serial=serial, spans=tr.spans,
                  replay_raw_s=[tr.spans[i][2] - tr.spans[i][1] for i, _, _ in replays])
    return tracing.layer_metrics(tr, replays, probe,
                                 statistics.median(serial["scaled_s"]),
                                 statistics.median(pooled["scaled_s"]), wl.pool_layer)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-extended", "sweep-plain", "crosscheck", "ensemble"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced sizes, for perfbench/selftest.py only")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    # Workloads run at the default worker count, which is what users get.
    threads_env = os.environ.pop("PARIMPLODE_THREADS", None)
    parimplode, workloads, tracing = load_package()
    from parimplode.ioutil import worker_count

    declared = declared_metrics(args.trace)
    wl = workloads.make(args.workload, workloads.SMALL if args.small else workloads.FULL, args.seed)
    warm_wl = workloads.make(args.workload, workloads.SMALL, args.seed)
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "small": args.small,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "parimplode": parimplode.__version__, "nproc": os.cpu_count(),
        "workers": worker_count(), "PARIMPLODE_THREADS": threads_env, "git_sha": git_sha(),
    }
    print("# env " + json.dumps(env), flush=True)

    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    record = {"env": env}
    try:
        runner = Runner(wl, warm_wl, workloads, Clock(), workdir)
        if args.trace:
            values = traced(wl, workloads, tracing, runner, args.seconds, workdir, record)
        else:
            values = untraced(wl, workloads, runner, args.seconds, record)
    except workloads.Mismatch as exc:
        print(f"perfbench: output mismatch: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(values) != set(declared):
        fail(f"measured metrics {sorted(values)} differ from BENCHMARK.json {sorted(declared)}")
    metrics = {name: {"value": values[name], "unit": declared[name]["unit"]} for name in declared}
    result = {"correct": True, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}
    record.update(result=result, calibrations_s=runner.clock.calibrations)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with open(out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    print(f"# {args.workload} seed={args.seed} attempted={runner.attempted} failed={runner.failed} "
          f"failed_frac={runner.failed / runner.attempted:.4g}")
    if "raw_wall_s" in record:
        print(f"# raw median pass {record['raw_wall_s']:.4g} s, before scaling to the reference speed")
    for name, m in declared.items():
        print(f"# {name:40s} {values[name]:>16.6g} {m['unit']:8s} {m['better']} is better")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
