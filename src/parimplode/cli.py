"""Command-line front end.

Subcommands: sweep, random, counterexample, skew, oracle, diagnose-sum.
Exit codes: 0 success, 1 usage error, 2 numerical failure (any other
ParimplodeError), 3 assertion failure.  Each option is declared once, in
``_OPTIONS`` (flag spec and help), and each subcommand once, in ``_COMMANDS``
(handler, help and the hard default of every field it takes); the parser and
the --config merge are both built from these tables.  A config document names
fields by flag name with '-' replaced by '_'; explicit flags override document
fields, and unknown document fields are rejected by name.  sweep and
diagnose-sum build their schedule from --theorem and --case (or
--quadratic-noncvg) alone, at the family's default parameters; the library's
``TheoremA``/``TheoremB`` take the others.

No option turns a check off or rescales it: every rung of sweep,
counterexample and skew at N <= 512 is cross-checked against direct
composition (``convergence.run_point``), and ``random`` counts a trial's
exceedance max_n |delta_n| / lambda_n >= 1 with the same lambda_n as the
union bound it reports: the proof's, or the constant --lambda-value.

The rungs of a ladder, and the oracle's slices of trials, run on forked
worker processes (``ioutil.map_rungs``); sweep, counterexample and skew (the
schedule ``SkewExample``) run theirs through ``convergence.run_sweep``.
--threads, or PARIMPLODE_THREADS where it is not given, sets their number
(``skew`` and ``oracle`` read only the variable).  By default ``random``,
``oracle`` and every ``--extended`` ladder take one worker per CPU, and the
binary64 ladders of sweep, counterexample and skew run inline, where forking
workers costs more than it saves (on 2 CPUs: exact-kernel benchmark ladders
0.43-0.46 s inline against 0.28-0.31 s on workers, eight plain sweeps 125
against 162 ms).  ``oracle`` cuts each N's trials into slices of at most
min(_ORACLE_BATCH, ceil(trials / workers)) and folds the slice maxima in
(N, trial) order, so its line is the same at any worker count.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .bands import RANDOM_HALFWIDTH, check, columns, fit_above, random_target, slope_band
from .convergence import ORACLE_GATE, check_ladder, run_sweep, write_rate_csv
from .errors import InvalidSpecError, OracleMismatchError, ParimplodeError, UsageError
from .ioutil import atomic_write_text, fmt17, map_rungs, worker_count, write_csv
from .mobius import compose_chain, projective_distance
from .randomlab import FixedLambda, PropLambda, run_ensemble, write_summary_csv, write_trial_csv
from .recurrences import coefficients_from_qr, run_recurrences
from .schedules import (
    CounterexampleC,
    QuadraticNonconvergent,
    Rademacher,
    SkewExample,
    TheoremA,
    TheoremB,
    UniformSymmetric,
    materialize,
    random_small_schedules,
    summation_diagnostic,
)
from .skew import SkewOrbitResult, build_example, write_skew_csv
from .svgplot import loglog_svg

COUNTEREXAMPLE_CSV_HEADER = "N,f_coeff_err,f_qN_abs,g_coeff_err,g_qN_abs"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def parse_ladder(text) -> list[int]:
    """'1000' | 'start:end:xFACTOR' (geometric) | 'start:end:+STEP' (arithmetic).

    A config document may also give one number or a list of them.
    """
    if isinstance(text, (list, tuple)):
        if not text:
            raise UsageError("n: ladder list is empty")
        return [_as_type("n", int, v) for v in text]
    if not isinstance(text, str):
        return [_as_type("n", int, text)]
    text = text.strip()
    if ":" not in text:
        try:
            return [int(text)]
        except ValueError:
            raise UsageError(f"n: expected an integer or start:end:step ladder, got {text!r}") from None
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"n: ladder must be start:end:xFACTOR or start:end:+STEP, got {text!r}")
    try:
        start, end = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"n: non-integer ladder endpoints in {text!r}") from None
    rule = parts[2]
    ns: list[int] = []
    if rule.startswith("x"):
        try:
            factor = float(rule[1:])
        except ValueError:
            raise UsageError(f"n: bad geometric factor in {text!r}") from None
        if not math.isfinite(factor):
            raise UsageError(f"n: geometric factor must be finite, got {text!r}")
        if factor <= 1.0:
            raise UsageError("n: geometric factor must be > 1")
        cur = start
        while cur <= end:
            ns.append(cur)
            nxt = int(round(cur * factor))
            if nxt <= cur:
                if cur < end:
                    raise UsageError(f"n: ladder {text!r} stalls at {cur}: "
                                     f"x{rule[1:]} rounds it back to {nxt}")
                break
            cur = nxt
    elif rule.startswith("+"):
        try:
            step = int(rule[1:])
        except ValueError:
            raise UsageError(f"n: bad arithmetic step in {text!r}") from None
        if step <= 0:
            raise UsageError("n: arithmetic step must be positive")
        ns = list(range(start, end + 1, step))
    else:
        raise UsageError(f"n: ladder step must start with 'x' or '+', got {rule!r}")
    if not ns:
        raise UsageError(f"n: ladder {text!r} is empty")
    return ns


def _rung_ladder(text) -> list[int]:
    """parse_ladder, then the rule of a ladder swept rung by rung (check_ladder)."""
    ns = parse_ladder(text)
    try:
        check_ladder(ns)
    except ValueError as exc:
        raise UsageError(f"n: {exc}") from None
    return ns


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"config: cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config: invalid JSON in {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise UsageError("config: document must be a JSON object")
    return doc


def _as_type(name: str, kind: type, value):
    """A config document value converted to ``kind`` (int or float).

    It takes a number or a string the type accepts, never a bool, and an
    int no fraction.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, str)) or (
            kind is int and isinstance(value, float) and not value.is_integer()):
        raise UsageError(f"{name}: expected {kind.__name__}, got {value!r}")
    try:
        return kind(value)
    except (ValueError, OverflowError):
        raise UsageError(f"{name}: expected {kind.__name__}, got {value!r}") from None


def _document_value(name: str, value):
    """A config document value, checked and converted as its flag would be.

    A typed field goes through ``_as_type``; a switch takes only true or false.
    """
    spec = _OPTIONS[name][0]
    if spec is _ON:
        if not isinstance(value, bool):
            raise UsageError(f"{name}: expected true or false, got {value!r}")
        return value
    kind = spec.get("type")
    if kind is not None:
        value = _as_type(name, kind, value)
    choices = spec.get("choices")
    if choices is not None and value not in choices:
        raise UsageError(f"{name}: expected one of {', '.join(choices)}, got {value!r}")
    return value


def _resolve(args: argparse.Namespace, fields: dict) -> dict:
    """Merge flag values over config document values over hard defaults.

    ``fields`` maps field name -> hard default; a default of ``...``
    marks the field required.  A document value goes through its flag's
    type and choices; null reads as the field left out.
    """
    doc = _load_config(args.config) if args.config else {}
    for key in doc:
        if key not in fields:
            raise UsageError(f"config: unknown field {key!r}")
    merged = {}
    for name, default in fields.items():
        flag_val = getattr(args, name)
        if flag_val is not None:
            merged[name] = flag_val
        elif doc.get(name) is not None:
            merged[name] = _document_value(name, doc[name])
        elif default is ...:
            raise UsageError(f"{name}: required (flag or config field)")
        else:
            merged[name] = default
    return merged


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
    family = TheoremA if cfg["theorem"].upper() == "A" else TheoremB
    try:
        return family(case)
    except InvalidSpecError as exc:
        raise UsageError(str(exc)) from None


def _assert_bands(criterion: str, series, **params) -> int:
    """Exit code 3 naming every clause of ``criterion`` that fails, else 0."""
    failures = [detail for ok, detail in check(criterion, series, **params) if not ok]
    if failures:
        print(f"parimplode: assertion failed: {'; '.join(failures)}", file=sys.stderr)
        return 3
    return 0


def _write_svg(path, series, fit, band, title, ylabel):
    fit_tuple = (fit.slope, fit.intercept) if fit is not None else None
    atomic_write_text(path, loglog_svg(series, title=title, ylabel=ylabel,
                                       fit=fit_tuple, band=band))


def cmd_sweep(cfg: dict) -> int:
    spec = _build_deterministic_spec(cfg)
    ns = _rung_ladder(cfg["n"])
    points = run_sweep(spec, ns, extended=cfg["extended"], max_workers=cfg["threads"])
    if cfg["out"]:
        write_rate_csv(points, cfg["out"])
    for p in points:
        print(f"N={p.N} coeff_err={p.coeff_err:.6g} sup_err={p.sup_err:.6g} "
              f"qN_abs={p.q_N_abs:.6g} rN_err={p.r_N_err:.6g}")

    criterion = {TheoremA: "theorem_a", TheoremB: "theorem_b",
                 QuadraticNonconvergent: "quadratic"}[type(spec)]
    field = "q_N_abs" if isinstance(spec, TheoremA) else "coeff_err"
    series = columns(points)
    fit = fit_above(ns, series[field])
    if fit is not None:
        print(f"fit {field}: slope={fit.slope:.4f} intercept={fit.intercept:.4f} "
              f"r2={fit.r_squared:.4f} n={fit.n_points}")
    else:
        print(f"fit {field}: not available (needs >= 3 positive points)")

    if cfg["svg"]:
        _write_svg(cfg["svg"], [(field, ns, series[field])], fit,
                   slope_band(criterion), f"sweep {type(spec).__name__}", field)
    return _assert_bands(criterion, series) if cfg["assert"] else 0


def cmd_random(cfg: dict) -> int:
    delta, trials = cfg["delta"], cfg["trials"]
    if cfg["dist"] == "rademacher":
        if cfg["m"] is not None:
            raise UsageError("m: only valid with --dist uniform")
        dist = Rademacher()
    else:
        dist = UniformSymmetric() if cfg["m"] is None else UniformSymmetric(cfg["m"])
    rule = PropLambda() if cfg["lambda_value"] is None else FixedLambda(cfg["lambda_value"])
    ns = _rung_ladder(cfg["n"])

    result = run_ensemble(delta, dist, ns, trials, cfg["seed"], lambda_rule=rule,
                          max_workers=cfg["threads"])
    summaries = result.summaries
    for s in summaries:
        print(f"N={s.N} trials={s.trials} median|qN|={s.median_qN:.6g} "
              f"q90|qN|={s.q90_qN:.6g} exceed={s.exceed_count} bound={s.azuma_bound:.4g}")
    if result.failures:
        print(f"failed trials: {len(result.failures)}", file=sys.stderr)

    run_ns = [s.N for s in summaries]
    medians = [s.median_qN for s in summaries]
    fit = fit_above(run_ns, medians)
    if fit is not None:
        print(f"fit median|qN|: slope={fit.slope:.4f} r2={fit.r_squared:.4f} "
              f"(target {random_target(delta):.3f} +/- {RANDOM_HALFWIDTH})")
    if cfg["out_trials"]:
        write_trial_csv(result.records, cfg["out_trials"])
    if cfg["out_summary"]:
        write_summary_csv(summaries, cfg["out_summary"])
    if cfg["svg"]:
        series = [("median |qN|", run_ns, medians),
                  ("q90 |qN|", run_ns, [s.q90_qN for s in summaries])]
        _write_svg(cfg["svg"], series, fit, slope_band("random", random_target(delta)),
                   f"random delta={delta}", "|q_N| quantiles")
    if not cfg["assert"]:
        return 0
    return _assert_bands("random", {"N": run_ns, "median_qN": medians,
                                    "exceed_frac": [s.exceed_count / s.trials for s in summaries],
                                    "union_bound": [s.azuma_bound for s in summaries]},
                         target=random_target(delta), trials=trials)


def cmd_counterexample(cfg: dict) -> int:
    ns = _rung_ladder(cfg["n"])
    if any(n % 2 for n in ns):
        raise UsageError(f"n: counterexample ladder must be even, got {ns}")
    f_points = run_sweep(CounterexampleC("multiplicative_f"), ns,
                         extended=cfg["extended"], max_workers=cfg["threads"])
    g_points = run_sweep(CounterexampleC("additive_g"), ns,
                         extended=cfg["extended"], max_workers=cfg["threads"])
    for fp, gp in zip(f_points, g_points):
        print(f"N={fp.N} f_coeff_err={fp.coeff_err:.6g} f_qN_abs={fp.q_N_abs:.6g} "
              f"g_coeff_err={gp.coeff_err:.6g}")
    if cfg["out"]:
        rows = ((str(fp.N), fmt17(fp.coeff_err), fmt17(fp.q_N_abs),
                 fmt17(gp.coeff_err), fmt17(gp.q_N_abs))
                for fp, gp in zip(f_points, g_points))
        write_csv(cfg["out"], COUNTEREXAMPLE_CSV_HEADER, rows)
    series = {"N": ns, "f_coeff_err": [p.coeff_err for p in f_points],
              "f_qN_abs": [p.q_N_abs for p in f_points],
              "g_coeff_err": [p.coeff_err for p in g_points]}
    g_fit = fit_above(ns, series["g_coeff_err"])
    if g_fit is not None:
        print(f"fit g coeff_err: slope={g_fit.slope:.4f} r2={g_fit.r_squared:.4f}")
    if cfg["svg"]:
        _write_svg(cfg["svg"], [("f coeff_err", ns, series["f_coeff_err"]),
                                ("g coeff_err", ns, series["g_coeff_err"])],
                   g_fit, slope_band("counterexample"),
                   "multiplicative vs additive split schedule", "coeff_err")
    return _assert_bands("counterexample", series) if cfg["assert"] else 0


def cmd_skew(cfg: dict) -> int:
    example = cfg["example"]
    ns = _rung_ladder(cfg["n"])
    points = run_sweep(SkewExample(example), ns, extended=cfg["extended"])
    rows = [(example, SkewOrbitResult(p.N, build_example(example, p.N).w_final(p.N),
                                      p.coeff_err, p.sup_err)) for p in points]
    for _, res in rows:
        print(f"N={res.N} |w_N|={abs(res.w_final):.6g} fiber_coeff_err={res.fiber_coeff_err:.6g} "
              f"fiber_sup_err={res.fiber_sup_err:.6g}")
    if cfg["out"]:
        write_skew_csv(rows, cfg["out"])
    criterion = "skew_exact" if example == 1 else "skew"
    errs = [res.fiber_coeff_err for _, res in rows]
    fit = fit_above(ns, errs)
    if fit is not None:
        print(f"fit fiber_coeff_err: slope={fit.slope:.4f} r2={fit.r_squared:.4f}")
    if cfg["svg"]:
        _write_svg(cfg["svg"], [(f"example {example}", ns, errs)], fit, slope_band(criterion),
                   f"skew example {example}", "fiber_coeff_err")
    series = {"N": ns, "fiber_coeff_err": errs, "|w_N|": [abs(res.w_final) for _, res in rows]}
    return _assert_bands(criterion, series) if cfg["assert"] else 0


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
    for n in parse_ladder(cfg["n"]):
        total, scaled = summation_diagnostic(materialize(spec, n))
        print(f"N={n} sum={total.real:.6g}{total.imag:+.6g}j N*|sum|={scaled:.6g}")
    return 0


_ON = {"action": "store_const", "const": True}

# field -> (add_argument keywords, help); the flag is --field with '_' -> '-'
_OPTIONS = {
    "theorem": ({"choices": ["A", "B", "a", "b"]}, "deterministic schedule family"),
    "case": ({"type": int}, "case number within the family"),
    "quadratic_noncvg": (_ON, "constant-angle non-convergent schedule"),
    "n": ({}, "N ladder: single value, start:end:xFACTOR, or start:end:+STEP"),
    "out": ({}, "CSV output path"),
    "svg": ({}, "SVG plot output path"),
    "assert": (_ON, "exit 3 if the pre-registered acceptance band fails"),
    "extended": (_ON, "exact fixed-point accumulation, each value rounded once"),
    "threads": ({"type": int}, "worker count override"),
    "delta": ({"type": float}, "decay exponent offset (> 0)"),
    "trials": ({"type": int}, "seeded trials per N"),
    "seed": ({"type": int}, "seed of the counter-based random stream"),
    "dist": ({"choices": ["uniform", "rademacher"]}, "distribution of the random perturbations"),
    "m": ({"type": float}, "uniform distribution bound"),
    "out_trials": ({}, "per-trial CSV path"),
    "out_summary": ({}, "summary CSV path"),
    "lambda_value": ({"type": float}, "constant tail threshold lambda_n (default: the proof's lambda_n)"),
    "example": ({"type": int}, "example id 1..5"),
    "n_max": ({"type": int}, "largest N checked, from 16, 64, 256, 512"),
    "config": ({}, "JSON config document (flags override)"),
}

_SCHEDULE = {"theorem": None, "case": None, "quadratic_noncvg": False}

# subcommand -> (handler, help, {field: hard default}); ``...`` marks a
# required field.  Every subcommand also takes --config.
_COMMANDS = {
    "sweep": (cmd_sweep, "deterministic N-sweep for one schedule",
              {**_SCHEDULE, "n": ..., "out": None, "svg": None, "assert": False,
               "extended": False, "threads": None}),
    "random": (cmd_random, "seeded Monte Carlo ensemble",
               {"delta": ..., "trials": 200, "seed": 0, "n": "200:6400:x2",
                "dist": "uniform", "m": None, "out_trials": None, "out_summary": None,
                "svg": None, "assert": False, "lambda_value": None, "threads": None}),
    "counterexample": (cmd_counterexample, "both sides of the split-angle schedule",
                       {"n": "500:8000:x2", "out": None, "svg": None, "assert": False,
                        "extended": False, "threads": None}),
    "skew": (cmd_skew, "skew-product example ladder",
             {"example": ..., "n": "100:12800:x2", "out": None, "svg": None,
              "assert": False, "extended": False}),
    "oracle": (cmd_oracle, "recurrence vs direct composition cross-check",
               {"trials": 200, "n_max": 512, "seed": 1}),
    "diagnose-sum": (cmd_diagnose_sum, "print the scaled admissibility sum per N",
                     {**_SCHEDULE, "n": ...}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="parimplode",
                     description="Non-autonomous perturbed parabolic compositions: "
                                 "rate sweeps, random ensembles, skew products.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for command, (_, help_text, fields) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in [*fields, "config"]:
            spec, option_help = _OPTIONS[name]
            p.add_argument("--" + name.replace("_", "-"), dest=name, default=None,
                           help=option_help, **spec)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return 1
    handler, _, fields = _COMMANDS[args.command]
    try:
        return handler(_resolve(args, fields))
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
