"""Command-line front end.

Subcommands: sweep, random, counterexample, skew, oracle, diagnose-sum.
Exit codes: 0 success, 1 usage error, 2 numerical failure (any other
ParimplodeError), 3 assertion failure.  Each option is declared once, in
``_OPTIONS`` (flag spec and help), and each subcommand once, in ``_COMMANDS``
(handler, help and the default of every field it takes); the parser is built
from these tables, so argparse alone types, defaults and requires each flag.
A process builds it once (``build_parser``), and every in-process
``main(argv)`` call reuses it: argparse fills a fresh namespace on each parse
and formats help when it prints it, and ``main`` looks the handler up in
``_COMMANDS`` at each call.
sweep and diagnose-sum build their schedule from --theorem and --case (or
--quadratic-noncvg) alone; the library's ``TheoremA`` also takes the
exact-rotation ``amplitude``.

sweep, random, counterexample and skew end in ``_report``: every run prints,
through ``bands.report``, a ``band <criterion>: ok|MISSED: <detail>`` line
per clause of its criterion, and --assert only makes a missed clause exit 3.
This module fits nothing: each slope printed or plotted is the one fit
``bands`` judges.

No option turns a check off or rescales it: every rung of sweep,
counterexample and skew at N <= 512 is cross-checked against direct
composition (``convergence.run_point``), and ``random`` counts a trial's
exceedance max_n |delta_n| / lambda_n >= 1 at the one threshold of the union
bound it reports, the proof's lambda_n = sqrt(2n) N^(-(3/2+delta/2)).

A ladder (--n) is one integer N, or start:end:xK with an integer K >= 2:
start, start*K, start*K^2, ... up to end (``parse_ladder``).
The rungs of a ladder, and the oracle's slices of trials, are shared out by
``ioutil.map_rungs``: the calling process runs one share and a forked worker
process each of the others; sweep, counterexample and skew (the schedule
``SkewExample``) run theirs through ``convergence.run_sweep``.  --threads, or
PARIMPLODE_THREADS where it is not given, sets the number of processes, the
caller included (``counterexample``, ``skew`` and ``oracle`` read only the
variable).  By default ``random``, ``oracle`` and every ``--extended`` ladder
whose top rung does not repeat take one process per CPU; the binary64 ladders
of sweep, counterexample and skew, and the ``--extended`` ladders whose top
rung is periodic, run inline (CHANGES.md gives the timings).  ``oracle``
cuts each N's trials into slices of at most min(_ORACLE_BATCH, ceil(trials /
workers)) and folds the slice maxima in (N, trial) order, so its line is the
same at any worker count.
"""
from __future__ import annotations

import argparse
import functools
import sys

from .bands import (
    columns,
    counterexample_series,
    ensemble_series,
    random_target,
    report,
    skew_series,
)
from .convergence import ORACLE_GATE, check_ladder, run_sweep, write_rate_csv
from .errors import InvalidSpecError, OracleMismatchError, ParimplodeError, UsageError
from .ioutil import atomic_write_text, map_rungs, worker_count, write_csv
from .mobius import compose_chain, projective_distance
from .randomlab import run_ensemble, write_summary_csv, write_trial_csv
from .recurrences import coefficients_from_qr, run_recurrences
from .schedules import (
    CounterexampleC,
    QuadraticNonconvergent,
    SkewExample,
    TheoremA,
    TheoremB,
    UniformSymmetric,
    materialize,
    random_small_schedules,
    summation_diagnostic,
)
from .skew import orbit_results, write_skew_csv
from .svgplot import loglog_svg

COUNTEREXAMPLE_CSV_HEADER = "N,f_coeff_err,f_qN_abs,g_coeff_err,g_qN_abs"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def parse_ladder(text: str) -> list[int]:
    """One integer N, or 'start:end:xK' with integers start, end and K >= 2:
    start, start*K, start*K^2, ... up to end.  A start below 1 ends the
    ladder at its first rung, which ``check_ladder`` refuses."""
    parts = text.strip().split(":")
    try:
        if len(parts) == 1:
            return [int(parts[0])]
        if len(parts) != 3 or not parts[2].startswith("x"):
            raise ValueError(text)
        start, end, factor = int(parts[0]), int(parts[1]), int(parts[2][1:])
    except ValueError:
        raise UsageError(f"n: expected N or start:end:xK with integers, got {text!r}") from None
    if factor < 2:
        raise UsageError(f"n: the factor K of start:end:xK must be >= 2, got {text!r}")
    if start > end:
        raise UsageError(f"n: ladder {text!r} is empty")
    ns = [start]
    while ns[-1] > 0 and ns[-1] * factor <= end:  # no factor grows a rung below 1
        ns.append(ns[-1] * factor)
    return ns


def _rung_ladder(text: str) -> list[int]:
    """parse_ladder, then the rule of a ladder swept rung by rung (check_ladder)."""
    ns = parse_ladder(text)
    try:
        check_ladder(ns)
    except ValueError as exc:
        raise UsageError(f"n: {exc}") from None
    return ns


def _build_deterministic_spec(cfg: dict):
    if cfg["quadratic_noncvg"]:
        if cfg["theorem"] is not None:
            raise UsageError("theorem: cannot combine --theorem with --quadratic-noncvg")
        if cfg["case"] is not None:
            raise UsageError("case: only valid with --theorem A|B")
        return QuadraticNonconvergent()
    if cfg["theorem"] is None:
        raise UsageError("theorem: choose --theorem A|B or --quadratic-noncvg")
    case = cfg["case"] if cfg["case"] is not None else 1
    family = TheoremA if cfg["theorem"] == "A" else TheoremB
    try:
        return family(case)
    except InvalidSpecError as exc:
        raise UsageError(str(exc)) from None


def _report(cfg: dict, criterion: str, series, plotted, title: str, ylabel: str,
            target: float = 0.0, trials: int | None = None) -> int:
    """Print the band lines of ``criterion``, plot ``plotted`` and pick the exit code."""
    verdicts, fit, wedge = report(criterion, series, target, trials)
    if cfg["svg"]:
        atomic_write_text(cfg["svg"], loglog_svg(
            plotted, title=title, ylabel=ylabel, band=wedge,
            fit=None if fit is None else (fit.slope, fit.intercept)))
    failures = [detail for ok, detail in verdicts if not ok]
    if cfg["assert"] and failures:
        print(f"parimplode: assertion failed: {'; '.join(failures)}", file=sys.stderr)
        return 3
    return 0


def cmd_sweep(cfg: dict) -> int:
    spec = _build_deterministic_spec(cfg)
    ns = _rung_ladder(cfg["n"])
    points = run_sweep(spec, ns, extended=cfg["extended"], max_workers=cfg["threads"])
    if cfg["out"]:
        write_rate_csv(points, cfg["out"])
    for p in points:
        print(f"N={p.N} coeff_err={p.coeff_err:.6g} sup_err={p.sup_err:.6g} "
              f"qN_abs={p.q_N_abs:.6g} rN_err={p.r_N_err:.6g}")
    criterion, field = {TheoremA: ("theorem_a", "q_N_abs"), TheoremB: ("theorem_b", "coeff_err"),
                        QuadraticNonconvergent: ("quadratic", "coeff_err")}[type(spec)]
    series = columns(points)
    return _report(cfg, criterion, series, [(field, ns, series[field])],
                   f"sweep {type(spec).__name__}", field)


def cmd_random(cfg: dict) -> int:
    delta, trials = cfg["delta"], cfg["trials"]
    dist = UniformSymmetric(cfg["m"])
    ns = _rung_ladder(cfg["n"])

    result = run_ensemble(delta, dist, ns, trials, cfg["seed"], max_workers=cfg["threads"])
    summaries = result.summaries
    for s in summaries:
        print(f"N={s.N} trials={s.trials} median|qN|={s.median_qN:.6g} "
              f"q90|qN|={s.q90_qN:.6g} exceed={s.exceed_count} bound={s.azuma_bound:.4g}")
    if result.failures:
        print(f"failed trials: {len(result.failures)}", file=sys.stderr)
    if cfg["out_trials"]:
        write_trial_csv(result.records, cfg["out_trials"])
    if cfg["out_summary"]:
        write_summary_csv(summaries, cfg["out_summary"])
    series = ensemble_series(summaries)
    plotted = [(f"{q} |qN|", series["N"], series[f"{q}_qN"]) for q in ("median", "q90")]
    return _report(cfg, "random", series, plotted, f"random delta={delta}", "|q_N| quantiles",
                   target=random_target(delta), trials=trials)


def cmd_counterexample(cfg: dict) -> int:
    ns = _rung_ladder(cfg["n"])
    f_points = run_sweep(CounterexampleC("multiplicative_f"), ns, extended=cfg["extended"])
    g_points = run_sweep(CounterexampleC("additive_g"), ns, extended=cfg["extended"])
    for fp, gp in zip(f_points, g_points):
        print(f"N={fp.N} f_coeff_err={fp.coeff_err:.6g} f_qN_abs={fp.q_N_abs:.6g} "
              f"g_coeff_err={gp.coeff_err:.6g}")
    if cfg["out"]:
        rows = ((fp.N, fp.coeff_err, fp.q_N_abs, gp.coeff_err, gp.q_N_abs)
                for fp, gp in zip(f_points, g_points))
        write_csv(cfg["out"], COUNTEREXAMPLE_CSV_HEADER, "dgggg", rows)
    series = counterexample_series(f_points, g_points)
    plotted = [(f"{side} coeff_err", ns, series[f"{side}_coeff_err"]) for side in "fg"]
    return _report(cfg, "counterexample", series, plotted,
                   "multiplicative vs additive split schedule", "coeff_err")


def cmd_skew(cfg: dict) -> int:
    example = cfg["example"]
    ns = _rung_ladder(cfg["n"])
    results = orbit_results(example, run_sweep(SkewExample(example), ns, extended=cfg["extended"]))
    for res in results:
        print(f"N={res.N} |w_N|={abs(res.w_final):.6g} fiber_coeff_err={res.fiber_coeff_err:.6g} "
              f"fiber_sup_err={res.fiber_sup_err:.6g}")
    if cfg["out"]:
        write_skew_csv([(example, res) for res in results], cfg["out"])
    series = skew_series(results)
    return _report(cfg, "skew_exact" if example == 1 else "skew", series,
                   [(f"example {example}", ns, series["fiber_coeff_err"])],
                   f"skew example {example}", "fiber_coeff_err")


_ORACLE_BATCH = 256  # schedules drawn per call, so memory stays flat at any --trials


def _oracle_slice(seed: int, item) -> tuple[float, int]:
    """The largest projective deviation over trials first..last-1 at N, and
    the first trial that reaches it (strict ``>``, as the fold in cmd_oracle)."""
    n, first, last = item
    worst, worst_at = 0.0, 0
    batch = range(first, last)
    for trial, seqs in zip(batch, random_small_schedules(n, seed, batch)):
        coeffs = coefficients_from_qr(run_recurrences(seqs), n)
        dev = projective_distance(coeffs, compose_chain(seqs.step_maps()))
        if dev > worst:
            worst, worst_at = dev, trial
    return worst, worst_at


def cmd_oracle(cfg: dict) -> int:
    trials, n_max, seed = cfg["trials"], cfg["n_max"], cfg["seed"]
    if trials < 1:
        raise UsageError(f"trials: must be >= 1, got {trials}")
    ns = [n for n in (16, 64, 256, 512) if n <= n_max]
    if not ns:
        raise UsageError(f"n_max: must be >= 16, got {n_max}")
    workers = worker_count()
    size = min(_ORACLE_BATCH, -(-trials // workers))
    slices = [(n, first, min(first + size, trials)) for n in ns for first in range(0, trials, size)]
    maxima = map_rungs(functools.partial(_oracle_slice, seed), slices, workers,
                       weight=lambda item: item[0] * (item[2] - item[1]))
    worst = 0.0
    worst_at = (0, 0)
    for (n, _, _), (dev, trial) in zip(slices, maxima):
        if dev > worst:
            worst, worst_at = dev, (n, trial)
    print(f"oracle: {trials} trials x {len(ns)} sizes, max projective deviation "
          f"{worst:.3e} at N={worst_at[0]} trial={worst_at[1]}")
    if worst > ORACLE_GATE:
        raise OracleMismatchError(
            f"recurrence vs chain deviation {worst:.3e} exceeds {ORACLE_GATE:g} "
            f"at N={worst_at[0]} trial={worst_at[1]}")
    return 0


def cmd_diagnose_sum(cfg: dict) -> int:
    spec = _build_deterministic_spec(cfg)
    for n in _rung_ladder(cfg["n"]):
        total, scaled = summation_diagnostic(materialize(spec, n))
        print(f"N={n} sum={total.real:.6g}{total.imag:+.6g}j N*|sum|={scaled:.6g}")
    return 0


_ON = {"action": "store_true"}

# field -> (add_argument keywords, help); the flag is --field with '_' -> '-'
_OPTIONS = {
    "theorem": ({"choices": ["A", "B"]}, "deterministic schedule family"),
    "case": ({"type": int}, "case number within the family"),
    "quadratic_noncvg": (_ON, "constant-angle non-convergent schedule"),
    "n": ({}, "N ladder: one integer N, or start:end:xK, which runs start, start*K, "
               "... up to end (integer K >= 2)"),
    "out": ({}, "CSV output path"),
    "svg": ({}, "SVG plot output path"),
    "assert": (_ON, "exit 3 if the pre-registered acceptance band fails"),
    "extended": (_ON, "exact fixed-point accumulation, each value rounded once"),
    "threads": ({"type": int}, "worker count override"),
    "delta": ({"type": float}, "decay exponent offset (> 0)"),
    "trials": ({"type": int}, "seeded trials per N"),
    "seed": ({"type": int}, "seed of the counter-based random stream"),
    "m": ({"type": float}, "bound M of the uniform perturbations eta_k on [-M, M]"),
    "out_trials": ({}, "per-trial CSV path"),
    "out_summary": ({}, "summary CSV path"),
    "example": ({"type": int}, "example id 1..5"),
    "n_max": ({"type": int}, "largest N checked, from 16, 64, 256, 512"),
}

_SCHEDULE = {"theorem": None, "case": None, "quadratic_noncvg": False}

# subcommand -> (handler, help, {field: default}); ``...`` marks a required flag
_COMMANDS = {
    "sweep": (cmd_sweep, "deterministic N-sweep for one schedule",
              {**_SCHEDULE, "n": ..., "out": None, "svg": None, "assert": False,
               "extended": False, "threads": None}),
    "random": (cmd_random, "seeded Monte Carlo ensemble",
               {"delta": ..., "trials": 200, "seed": 0, "n": "200:6400:x2",
                "m": 1.0, "out_trials": None, "out_summary": None,
                "svg": None, "assert": False, "threads": None}),
    "counterexample": (cmd_counterexample, "both sides of the split-angle schedule",
                       {"n": "500:8000:x2", "out": None, "svg": None, "assert": False,
                        "extended": False}),
    "skew": (cmd_skew, "skew-product example ladder",
             {"example": ..., "n": "100:12800:x2", "out": None, "svg": None,
              "assert": False, "extended": False}),
    "oracle": (cmd_oracle, "recurrence vs direct composition cross-check",
               {"trials": 200, "n_max": 512, "seed": 1}),
    "diagnose-sum": (cmd_diagnose_sum, "print the scaled admissibility sum per N",
                     {**_SCHEDULE, "n": ...}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built from ``_OPTIONS`` and ``_COMMANDS``
    on the first call and returned as is by every later one, so a later edit
    of a table's flags or help is not seen (``main`` reads the handler per
    call).  Callers parse with it and do not change it."""
    parser = _Parser(prog="parimplode",
                     description="Non-autonomous perturbed parabolic compositions: "
                                 "rate sweeps, random ensembles, skew products.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for command, (_, help_text, fields) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, default in fields.items():
            spec, option_help = _OPTIONS[name]
            p.add_argument("--" + name.replace("_", "-"), dest=name, default=default,
                           required=default is ..., help=option_help, **spec)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command line (``sys.argv[1:]`` when ``argv`` is None) and return
    its exit code; help and argparse's usage errors raise SystemExit (0 and 1).
    Every call in a process parses with the one parser ``build_parser`` built."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return 1
    handler = _COMMANDS[args.command][0]
    try:
        return handler(vars(args))
    except (UsageError, InvalidSpecError) as exc:
        print(f"parimplode: error: {exc}", file=sys.stderr)
        return 1
    except ParimplodeError as exc:
        print(f"parimplode: numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"parimplode: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        reason = exc.strerror or str(exc)
        if exc.filename is not None:
            reason = f"cannot write {exc.filename}: {reason}"
        print(f"parimplode: error: {reason}", file=sys.stderr)
        return 1


def entry() -> int:
    return main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(entry())
