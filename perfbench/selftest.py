"""Self-test of the benchmark at reduced size (about a minute on two cores).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps to its format; that every run, traced and
untraced, prints every declared metric with its unit and direction and ends
with a well-formed result line; that another seed changes the ``ensemble``
and ``crosscheck`` outputs and leaves the sweep outputs byte-identical; and
that the benchmark fails, without a result line, in a directory holding only
BENCHMARK.json and perfbench/.  Exits 1 on the first failed check.
"""
from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(cond: bool, message: str) -> None:
    if not cond:
        print(f"selftest: FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def check_spec(spec: dict) -> None:
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          f"BENCHMARK.json keys {sorted(spec)}")
    check(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(len(names) == len(set(names)), "every name is used once")
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"} and NAME.match(w["name"]) and len(w["why"]) <= 200,
              f"workload entry {w}")
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25,
              f"end-to-end entry {m}")
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"per-layer entry {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("higher", "lower"),
              f"metric entry {m}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
          "setup_s is declared in s, lower is better")
    check(setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]), "setup_s has the largest bound")


def run_small(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
                           "--seconds", "1", "--trace", str(trace), "--small"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(spec: dict, workload: str, trace: int) -> None:
    proc = run_small(run.ROOT, workload, trace)
    check(proc.returncode == 0, f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == RESULT_KEYS and result["correct"] is True, f"{workload}: result keys {sorted(result)}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1
          and isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"],
          f"{workload}: attempted/failed {result['attempted']}/{result['failed']}")
    declared = spec["per_layer" if trace else "end_to_end"]
    check(set(result["metrics"]) == {m["name"] for m in declared},
          f"{workload} trace {trace}: metrics differ from BENCHMARK.json")
    table = "\n".join(lines[:-1])
    for m in declared:
        got = result["metrics"][m["name"]]
        check(set(got) == {"value", "unit"} and got["unit"] == m["unit"]
              and isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
              f"{workload}: metric {m['name']} reads {got}")
        check(re.search(rf"^# {re.escape(m['name'])} .* {re.escape(m['unit'])} +{m['better']} is better$",
                        table, re.M) is not None,
              f"{workload}: {m['name']} is not printed with its unit and direction")
    if not trace:
        for name in ("wall_s", "steps_per_s", "setup_s", "peak_rss_mb"):
            check(result["metrics"][name]["value"] > 0, f"{workload}: {name} is not positive")


def check_seeds(names) -> None:
    _, workloads, _ = run.load_package()
    scratch = run.HERE / ".work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as outdir:
        for name in names:
            prints = []
            for seed in (1, 2):
                wl = workloads.make(name, workloads.SMALL, seed)
                ops = wl.ops(outdir)
                results = workloads.run_pass(ops)
                workloads.collect(ops, results)
                prints.append(workloads.fingerprint(results))
            if name.startswith("sweep"):
                check(prints[0] == prints[1], f"{name}: outputs depend on the seed")
            else:
                check(prints[0] != prints[1], f"{name}: outputs do not depend on the seed")


def check_without_program() -> None:
    scratch = run.HERE / ".work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        bare = Path(bare)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
        proc = run_small(bare, "sweep-plain", 0)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        check(proc.returncode != 0 and not last[0].startswith("{"),
              f"without the program the run exited {proc.returncode} with {last[0]!r}")


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    check_spec(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
            print(f"selftest: {w['name']} trace {trace} ok")
    check_seeds([w["name"] for w in spec["workloads"]])
    print("selftest: seed dependence ok")
    check_without_program()
    print("selftest: fails without the program ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
