"""CLI and package surface: ladder parsing, flags and their defaults, exit codes,
output determinism, the exported names."""
import argparse
import errno
import hashlib
import os
import shlex
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import parimplode
from parimplode import (
    EnsembleSummary,
    OracleMismatchError,
    QRSTriple,
    RandomSchedule,
    RatePoint,
    SkewOrbitResult,
    TheoremA,
    UniformSymmetric,
    UsageError,
    cli,
    coefficients_from_qr,
    compose_chain,
    convergence,
    errors,
    materialize,
    projective_distance,
    random_small_schedule,
    run_recurrences,
    run_sweep,
    union_bound,
    write_rate_csv,
)
from parimplode.bands import columns, ensemble_series, fit_above, judge, skew_series
from parimplode.cli import main, parse_ladder
from parimplode.ioutil import fmt17
from parimplode.svgplot import loglog_svg

# every subcommand's flags besides --help; pinned here, apart from the option
# table, so that a flag dropped from the table, or one come back, shows
_SCHEDULE_FLAGS = ["--theorem", "--case", "--quadratic-noncvg"]
_FLAGS = {
    "sweep": _SCHEDULE_FLAGS + ["--n", "--out", "--svg", "--assert", "--extended", "--threads"],
    "random": ["--delta", "--trials", "--seed", "--n", "--m", "--out-trials",
               "--out-summary", "--svg", "--assert", "--threads"],
    "counterexample": ["--n", "--out", "--svg", "--assert", "--extended"],
    "skew": ["--example", "--n", "--out", "--svg", "--assert", "--extended"],
    "oracle": ["--trials", "--n-max", "--seed"],
    "diagnose-sum": _SCHEDULE_FLAGS + ["--n"],
}
_ERRORS = sorted((c for c in vars(errors).values() if isinstance(c, type)
                  and issubclass(c, errors.ParimplodeError) and c is not errors.ParimplodeError),
                 key=lambda c: c.__name__)


def test_parse_ladder_geometric(capsys):
    assert parse_ladder("100:12800:x2") == [100, 200, 400, 800, 1600, 3200, 6400, 12800]
    assert parse_ladder("100:10000:x10") == [100, 1000, 10000]
    assert parse_ladder("100:799:x2") == [100, 200, 400]
    assert parse_ladder("100:100:x2") == [100]
    # no factor grows a start below 1: the ladder ends there, and the rung
    # rule names it
    assert parse_ladder("0:100:x2") == [0]
    assert parse_ladder("-8:100:x2") == [-8]
    assert main(["sweep", "--theorem", "A", "--n", "0:100:x2"]) == 1
    assert capsys.readouterr() == (
        "", "parimplode: error: n: ladder must be strictly increasing with every N >= 4, got [0]\n")


def test_parse_ladder_single():
    assert parse_ladder("512") == [512]
    assert parse_ladder(" 512 ") == [512]


def test_parse_ladder_errors(capsys):
    for bad in ("abc", "100:200", "100:200:y2", "100:200:x0.5", "100:200:+0",
                "200:100:x2", "a:b:x2", "100:200:xinf", "100:200:xnan", "100:200:x",
                "100:200:x2:x2"):
        with pytest.raises(UsageError, match="^n: "):
            parse_ladder(bad)
    # a ladder is one N or start:end:xK with an integer K >= 2: the arithmetic
    # and fractional forms are refused, from every command
    for bad in ("10:40:+10", "100:150:x1.5", "100:800:x1.004", "100:200:x1", "100:200:x2.0"):
        assert main(["sweep", "--theorem", "A", "--n", bad]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("parimplode: error: n: ") and err.count("\n") == 1, err
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--theorem", "a", "--n", "100"])
    assert exit_info.value.code == 1
    assert "argument --theorem: invalid choice: 'a'" in capsys.readouterr().err


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "sweep" in capsys.readouterr().out


def test_sweep_quadratic_noncvg_assert_passes(capsys):
    rc = main(["sweep", "--quadratic-noncvg", "--n", "100:400:x2", "--assert"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "coeff_err=1.06" in out  # order-one error that never decays


def test_sweep_rejects_conflicting_family():
    assert main(["sweep", "--quadratic-noncvg", "--theorem", "A", "--n", "100"]) == 1


def test_random_usage_errors(capsys):
    for flags, field in ((["--delta", "0", "--trials", "50"], "delta:"),
                         (["--delta", "0.5", "--trials", "20"], "trials:"),
                         (["--delta", "0.5", "--trials", "0"], "trials:"),
                         (["--delta", "0.5", "--m", "0"], "m:"),
                         (["--delta", "0.5", "--m", "-1"], "m:")):
        assert main(["random", *flags]) == 1
        assert capsys.readouterr().err.startswith(f"parimplode: error: {field} ")


@pytest.mark.parametrize("flags, field", [
    (["--delta", "nan"], "delta"),
    (["--delta", "inf"], "delta"),
    (["--delta", "0.5", "--m", "nan"], "m"),
    (["--delta", "0.5", "--m", "inf"], "m"),
])
def test_random_rejects_non_finite_values(capsys, flags, field):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["random", "--trials", "30", "--n", "200", *flags]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"parimplode: error: {field.rstrip(':')}: "), out.err


@pytest.mark.parametrize("argv, message", [
    (["random", "--delta", "inf"], "delta: must be a positive real, got inf"),
    (["random", "--delta", "0.5", "--m", "nan"], "m: must be a positive real, got nan"),
    (["skew", "--example", "6"], "example: must be 1..5, got 6"),
    (["sweep", "--theorem", "A", "--case", "4", "--n", "100"], "case: TheoremA has cases 1..3, got 4"),
    (["sweep", "--theorem", "B", "--case", "6", "--n", "100"], "case: TheoremB has cases 1..5, got 6"),
    (["diagnose-sum", "--theorem", "A", "--n", "3"],
     "n: ladder must be strictly increasing with every N >= 4, got [3]"),
], ids=["delta", "m", "example", "case-A", "case-B", "n"])
def test_a_bad_value_names_its_field(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parimplode: error: {message}\n"


@pytest.mark.parametrize("argv, field", [
    (["diagnose-sum", "--quadratic-noncvg", "--case", "3"], "case"),
    (["sweep", "--quadratic-noncvg", "--case", "3"], "case"),
])
def test_an_option_the_run_would_ignore_is_a_usage_error(capsys, argv, field):
    assert main([*argv, "--n", "200"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"parimplode: error: {field}: only valid with --"), captured.err


def test_an_unknown_flag_is_a_usage_error(capsys):
    # argparse refuses a flag the subcommand does not declare; the declared
    # set of each is pinned by test_help_lists_every_flag_with_help
    with pytest.raises(SystemExit) as exit_info:
        main(["oracle", "--trials", "5", "--config", "cfg.json"])
    assert exit_info.value.code == 1
    assert "unrecognized arguments: --config cfg.json" in capsys.readouterr().err


def test_sweep_plain_hits_wronskian_gate_at_large_n(tmp_path, monkeypatch, capsys):
    # the plain kernel clears the 1e-9 conservation gate at N = 12800; a q
    # scaled by 1 + 1e-6 must still surface as a numerical failure, not as
    # a data point, and leave no CSV behind
    real = convergence.run_recurrences

    def scaled_q(seqs, extended=False):
        triple = real(seqs, extended)
        return QRSTriple(q=triple.q * (1 + 1e-6), r=triple.r, rho_cumprod=triple.rho_cumprod)

    monkeypatch.setattr(convergence, "run_recurrences", scaled_q)
    out = tmp_path / "rates.csv"
    rc = main(["sweep", "--theorem", "B", "--case", "2", "--n", "12800", "--out", str(out)])
    assert rc == 2
    assert "Wronskian" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--theorem", "B", "--case", "1"], ["counterexample"], ["skew", "--example", "4"],
], ids=lambda a: a[0])
def test_every_ladder_is_cross_checked_up_to_512(monkeypatch, capsys, argv):
    # an oracle deviation just over the gate fails every rung the oracle
    # reaches, N = 256 and 512, and no rung above it
    monkeypatch.setattr(convergence, "projective_distance", lambda coeffs, chain: 2e-9)
    assert main([*argv, "--n", "256:1024:x2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "parimplode: numerical failure: 2 sweep point(s) failed: "
        "N=256: recurrence vs chain deviation 2.000e-09 at N=256 exceeds 1e-09, "
        "N=512: recurrence vs chain deviation 2.000e-09 at N=512 exceeds 1e-09\n")


def test_random_tail_clause_reads_a_bound_below_1(tmp_path, capsys):
    # at M = 0.25 the union bound is (N+1) exp(-16), 9.0e-5 at N = 800, so
    # --assert judges the exceedance clause against it, not vacuously; no
    # trial exceeds, and only the median slope misses its band
    summary = tmp_path / "summary.csv"
    assert main(["random", "--delta", "1", "--m", "0.25", "--trials", "30", "--n", "200:800:x2",
                 "--out-summary", str(summary), "--assert"]) == 3
    rows = [line.split(",") for line in summary.read_text().splitlines()[1:]]
    assert [row[-1] for row in rows] == [fmt17(union_bound(n, 1.0, 0.25)) for n in (200, 400, 800)]
    assert [row[-2] for row in rows] == ["0", "0", "0"]
    assert capsys.readouterr().err == (
        "parimplode: assertion failed: median_qN slope -0.394 (band [-1.200, -0.800])\n")


def test_an_os_error_without_a_filename_names_no_file(monkeypatch, capsys):
    # `parimplode sweep ... | head -1` closes stdout under the run
    def handler(cfg):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    _replace_handler(monkeypatch, "oracle", handler)
    assert main(["oracle"]) == 1
    assert capsys.readouterr() == ("", "parimplode: error: Broken pipe\n")


def test_svg_bytes_pinned():
    # two series (one point non-positive, so dropped), a fit, a band and a
    # title that needs escaping; any change to the drawn bytes shows here
    series = [("coeff_err", [100, 200, 400, 800], [3e-4, 7.6e-5, 1.9e-5, 4.7e-6]),
              ("sup_err <A&B>", [100, 200, 400, 800], [1e-3, 2.4e-4, 6.1e-5, 0.0])]
    text = loglog_svg(series, title='Theorem "B" <case 2> & rates', ylabel="error",
                      fit=(-2.0, -1.0), band=(-2.2, -1.8))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "89a246a5057aa538bc0a7bb0e0875a03122a444adcfbcc855f0d8c754fc00b23")


def test_counterexample_rejects_odd_ladder(capsys):
    assert main(["counterexample", "--n", "501:1001:x2"]) == 1
    assert "even" in capsys.readouterr().err


def test_counterexample_small_run(tmp_path, capsys):
    out = tmp_path / "ce.csv"
    rc = main(["counterexample", "--n", "500:2000:x2", "--out", str(out), "--assert"])
    assert rc == 0
    lines = out.read_text().split("\n")
    assert lines[0] == "N,f_coeff_err,f_qN_abs,g_coeff_err,g_qN_abs"
    assert lines[1] == ("500,0.63667213196194761,0.63664699912018929,"
                        "0.015936139270263085,0.0080000056806486253")


@pytest.mark.parametrize("argv, flag", [(["skew", "--n", "100:400:x2"], "--example"),
                                        (["random", "--n", "200"], "--delta")],
                         ids=["skew", "random"])
def test_a_missing_required_flag_exits_1(capsys, argv, flag):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 1
    assert capsys.readouterr() == (
        "", f"parimplode {argv[0]}: error: the following arguments are required: {flag}\n")


@pytest.mark.parametrize("argv", [["sweep", "--theorem", "A"], ["random", "--delta", "0.5"]],
                         ids=lambda a: a[0])
def test_a_rung_below_4_is_a_usage_error(capsys, argv):
    # a string ladder always rises; N >= 4 is the part of check_ladder left to catch
    assert main([*argv, "--n", "3"]) == 1
    assert capsys.readouterr() == (
        "", "parimplode: error: n: ladder must be strictly increasing with every N >= 4, got [3]\n")


def test_skew_assert_example4(capsys):
    # the full ladder passes (test_readme_cli_commands_exit_0); a short ladder
    # ends above the top-rung band: |w_N| = 1.25e-3 at N = 800
    assert main(["skew", "--example", "4", "--n", "100:800:x2", "--assert"]) == 3
    assert "|w_N| 1.3e-03 at N=800" in capsys.readouterr().err


def test_skew_runs_extended_rungs_on_worker_processes(monkeypatch, tmp_path, two_cpus, watch_pids):
    # skew sweeps with run_sweep: inline when plain or when --extended meets
    # a periodic top rung (example 4, constant), on workers when --extended
    # meets an aperiodic one (example 3) or PARIMPLODE_THREADS asks, with the
    # same CSV bytes either way
    ran = watch_pids(convergence, "_measure")  # every rung's measurement
    csv = {}

    def run(name, example, *flags):
        out = tmp_path / f"{name}.csv"
        assert main(["skew", "--example", example, "--n", "100:800:x2", *flags, "--out", str(out)]) == 0
        csv[name] = out.read_bytes()
        return ran()

    assert run("plain", "4") == "parent"
    assert run("extended", "3", "--extended") == "both"
    assert run("periodic", "4", "--extended") == "parent"
    monkeypatch.setenv("PARIMPLODE_THREADS", "1")
    assert run("extended inline", "3", "--extended") == "parent"
    monkeypatch.setenv("PARIMPLODE_THREADS", "2")
    assert run("plain pooled", "4") == "both"
    assert run("periodic pooled", "4", "--extended") == "both"
    assert csv["extended inline"] == csv["extended"]
    assert csv["plain pooled"] == csv["plain"]
    assert csv["periodic pooled"] == csv["periodic"]


@pytest.mark.parametrize("threads", [None, "1", "2"])
def test_skew_reports_the_lowest_failing_rung(monkeypatch, capsys, two_cpus, watch_pids, threads):
    # inline and pooled alike, the ladder runs every rung and names each
    # failing one, the lowest first, in one numerical failure.  By default
    # example 3 (aperiodic) pools and example 4 (constant) runs inline.
    ran = watch_pids(convergence, "_measure")  # every rung's measurement
    real = convergence._measure

    def failing(seqs, extended):
        if seqs.N in (200, 800):
            raise OracleMismatchError(f"injected failure at N={seqs.N}")
        return real(seqs, extended)

    monkeypatch.setattr(convergence, "_measure", failing)
    if threads is not None:
        monkeypatch.setenv("PARIMPLODE_THREADS", threads)
    for example, pooled in (("3", threads != "1"), ("4", threads == "2")):
        assert main(["skew", "--example", example, "--extended", "--n", "100:1600:x2"]) == 2
        assert ran() == ("both" if pooled else "parent")
        assert capsys.readouterr() == ("", "parimplode: numerical failure: 2 sweep point(s) failed: "
                                       "N=200: injected failure at N=200, N=800: injected failure at N=800\n")


# ladder commands for every criterion (theorem_b on both kernels), with the
# CSV flag that writes its series; the CSVs print 17 significant digits, so
# every value reads back exactly
_BAND_RUNS = {
    "sweep-A1": (["sweep", "--theorem", "A", "--case", "1", "--n", "100:12800:x2"], "theorem_a"),
    "sweep-B2": (["sweep", "--theorem", "B", "--case", "2", "--n", "100:12800:x2"], "theorem_b"),
    "sweep-B2-extended": (["sweep", "--theorem", "B", "--case", "2", "--extended",
                           "--n", "100:12800:x2"], "theorem_b"),
    "quadratic": (["sweep", "--quadratic-noncvg", "--n", "100:12800:x2"], "quadratic"),
    "counterexample": (["counterexample"], "counterexample"),
    "skew-1": (["skew", "--example", "1"], "skew_exact"),
    "skew-3-extended": (["skew", "--example", "3", "--extended"], "skew"),
    "random": (["random", "--delta", "1", "--m", "0.25", "--trials", "30",
                "--n", "200:800:x2"], "random"),
}


def _csv_series(path, command):
    """The band series of a command's CSV, read back into the result rows the
    CLI judges; the counterexample CSV's columns are its series already."""
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    rows = [[int(x) if x.isdigit() else float(x) for x in row] for row in rows]
    if command == "counterexample":
        return {name: [row[i] for row in rows] for i, name in enumerate(header)}
    if command == "skew":  # example_id, then SkewOrbitResult with w_final as |w_N|
        return skew_series([SkewOrbitResult(*row[1:]) for row in rows])
    if command == "random":
        return ensemble_series([EnsembleSummary(*row) for row in rows])
    return columns([RatePoint(*row) for row in rows])


@pytest.mark.parametrize("argv, criterion", _BAND_RUNS.values(), ids=_BAND_RUNS)
def test_band_lines_are_the_checker_verdicts(tmp_path, capsys, argv, criterion):
    # every run prints judge's verdict on each clause, in clause order; only
    # --assert turns a missed clause into exit 3, naming exactly the missed ones
    csv = tmp_path / "series.csv"
    assert main([*argv, "--out-summary" if argv[0] == "random" else "--out", str(csv)]) == 0
    out = capsys.readouterr().out
    params = {"target": -1.0, "trials": 30} if criterion == "random" else {}
    verdicts = judge(criterion, _csv_series(csv, argv[0]), **params)[0]
    assert [line for line in out.splitlines() if line.startswith("band ")] == [
        f"band {criterion}: {'ok' if ok else 'MISSED'}: {detail}" for ok, detail in verdicts]
    missed = [detail for ok, detail in verdicts if not ok]
    # skew example 3 and the small ensemble miss a clause; every other run meets its band
    assert bool(missed) == (criterion in ("skew", "random"))
    assert main([*argv, "--assert"]) == (3 if missed else 0)
    assert capsys.readouterr().err == (
        f"parimplode: assertion failed: {'; '.join(missed)}\n" if missed else "")


def test_assert_quotes_the_band_line_slope(capsys):
    # stdout and --assert quote the one fit the band judges, over the values
    # above the floor; the cases above reach a missed clause and a passed one
    assert main([*_BAND_RUNS["skew-3-extended"][0], "--assert"]) == 3
    out, err = capsys.readouterr()
    assert "band skew: MISSED: fiber_coeff_err slope +2.362 (band <= -0.5)\n" in out
    assert "band skew: ok: |w_N| 6.1e-09 at N=12800 (band < 0.0001)\n" in out
    assert err == "parimplode: assertion failed: fiber_coeff_err slope +2.362 (band <= -0.5)\n"


def test_the_plot_draws_the_judged_fit(tmp_path):
    # skew example 3 reads values at or below the floor: the plotted line is
    # the band's fit over the values above it (slope +2.362), not one over
    # every value above 0 (+1.643)
    csv, svg = tmp_path / "skew.csv", tmp_path / "skew.svg"
    argv = ["skew", "--example", "3", "--extended", "--out", str(csv), "--svg", str(svg)]
    assert main(argv) == 0
    series = _csv_series(csv, "skew")
    fit = fit_above(series["N"], series["fiber_coeff_err"])
    assert f"{fit.slope:+.3f}" == "+2.362"
    assert svg.read_text() == loglog_svg(
        [("example 3", series["N"], series["fiber_coeff_err"])], title="skew example 3",
        ylabel="fiber_coeff_err", fit=(fit.slope, fit.intercept))
    # a criterion without a slope clause draws no fit line
    assert main(["sweep", "--quadratic-noncvg", "--n", "100:400:x2", "--svg", str(svg)]) == 0
    assert "stroke-dasharray" not in svg.read_text()


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_oracle_needs_a_trial(capsys, trials):
    # a gate over no trials would pass on no data
    assert main(["oracle", "--trials", trials]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parimplode: error: trials: must be >= 1, got {trials}\n"


def test_oracle_matches_a_per_trial_replay(monkeypatch, capsys):
    # the sliced, batched draw must print the deviation and (N, trial) that
    # one schedule at a time, in (N, trial) order with the first maximum,
    # gives; three workers cut 20 trials into slices of 7, 7 and 6, and
    # batches of 7 make every worker count end an N on a partial slice
    for seed in (1, 2, 3):
        worst, worst_at = 0.0, (0, 0)
        for n in (16, 64, 256, 512):
            for trial in range(20):
                seqs = random_small_schedule(n, seed, trial)
                coeffs = coefficients_from_qr(run_recurrences(seqs), n)
                dev = projective_distance(coeffs, compose_chain(seqs.step_maps()))
                if dev > worst:
                    worst, worst_at = dev, (n, trial)
        want = (f"oracle: 20 trials x 4 sizes, max projective deviation {worst:.3e} "
                f"at N={worst_at[0]} trial={worst_at[1]}\n")
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("PARIMPLODE_THREADS", threads)
            for batch in (cli._ORACLE_BATCH, 7):
                monkeypatch.setattr(cli, "_ORACLE_BATCH", batch)
                assert main(["oracle", "--trials", "20", "--seed", str(seed)]) == 0
                assert capsys.readouterr().out == want, (threads, batch)


def test_oracle_runs_on_worker_processes(monkeypatch, capsys, two_cpus, watch_pids):
    ran = watch_pids(cli, "run_recurrences")
    assert main(["oracle", "--trials", "10", "--n-max", "64"]) == 0
    assert ran() == "both"
    pooled = capsys.readouterr().out
    monkeypatch.setenv("PARIMPLODE_THREADS", "1")
    assert main(["oracle", "--trials", "10", "--n-max", "64"]) == 0
    assert ran() == "parent"
    assert capsys.readouterr().out == pooled


def test_oracle_reports_the_first_failing_trial_at_any_worker_count(monkeypatch, capsys):
    # failures at N = 64 trial 3 and N = 256 trial 15: at two workers they
    # fall in slices (64, 0..9) and (256, 10..19), run on different workers
    real = cli.coefficients_from_qr
    bad = {run_recurrences(random_small_schedule(n, 1, t)).q.tobytes(): (n, t)
           for n, t in ((64, 3), (256, 15))}

    def failing(qr, n):
        at = bad.get(qr.q.tobytes())
        if at is not None:
            raise errors.DegenerateMapError(f"injected at N={at[0]} trial={at[1]}")
        return real(qr, n)

    monkeypatch.setattr(cli, "coefficients_from_qr", failing)
    for threads in ("1", "2"):
        monkeypatch.setenv("PARIMPLODE_THREADS", threads)
        assert main(["oracle", "--trials", "20", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parimplode: numerical failure: injected at N=64 trial=3\n"
    # the second failure is seen too, once it is the first
    del bad[next(key for key, at in bad.items() if at == (64, 3))]
    assert main(["oracle", "--trials", "20", "--seed", "1"]) == 2
    assert capsys.readouterr().err == "parimplode: numerical failure: injected at N=256 trial=15\n"


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("argv", [["oracle", "--trials", "2"],
                                  ["random", "--delta", "0.5", "--trials", "30", "--n", "200"]],
                         ids=["oracle", "random"])
def test_seed_out_of_range_is_a_usage_error(capsys, argv, seed):
    assert main([*argv, f"--seed={seed}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parimplode: error: seed: must be in 0..2**64-1, got {seed}\n"


@pytest.mark.parametrize("argv", [
    ["sweep", "--theorem", "A", "--n", "100"],
    ["random", "--delta", "0.5"],
])
@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_is_a_usage_error(capsys, argv, threads):
    assert main(argv + ["--threads", threads]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parimplode: error: threads: must be >= 1, got {threads}\n"


@pytest.mark.parametrize("argv, threads", [
    (["random", "--delta", "0.5", "--n", "200", "--trials", "30"], "0"),
    (["sweep", "--theorem", "A", "--n", "100"], "-3"),
    (["counterexample", "--n", "500"], "0"),
])
def test_threads_env_below_one_is_a_usage_error(monkeypatch, capsys, argv, threads):
    monkeypatch.setenv("PARIMPLODE_THREADS", threads)
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "", f"parimplode: error: PARIMPLODE_THREADS must be >= 1, got '{threads}'\n")


@pytest.mark.parametrize("argv, flag", [
    (["sweep", "--theorem", "A", "--n", "100"], "--out"),
    (["sweep", "--theorem", "A", "--n", "100"], "--svg"),
    (["random", "--delta", "0.5", "--n", "200", "--trials", "30"], "--out-trials"),
    (["random", "--delta", "0.5", "--n", "200", "--trials", "30"], "--out-summary"),
])
def test_unwritable_output_path_is_named(tmp_path, capsys, argv, flag):
    path = tmp_path / "missing" / "out.file"
    assert main(argv + [flag, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"parimplode: error: cannot write {path}: "), err
    assert ".tmp-" not in err
    assert not path.parent.exists()


def test_diagnose_sum(capsys):
    rc = main(["diagnose-sum", "--theorem", "A", "--case", "1", "--n", "512"])
    assert rc == 0
    assert "N*|sum|" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["sweep", "--theorem", "B", "--case", "4"], ["counterexample"],
                                     ["diagnose-sum", "--theorem", "B", "--case", "4"],
                                     ["random", "--delta", "0.5", "--trials", "30"]],
                         ids=lambda a: a[0])
def test_inadmissible_n_exits_1_from_every_command(capsys, command):
    # at N = 4 the steps of B4, of the counterexample and of the random lab
    # have |b_k| > 1: the spec is inadmissible there, whichever command builds it
    assert main(command + ["--n", "4"]) == 1
    assert capsys.readouterr().err == \
        "parimplode: error: N=4: |b_k| must be <= 1, max is 1.414213562373095\n"


@pytest.mark.parametrize("m, message", [
    ("1e4", "|eps_k^2| must be <= 1, max is 12.49278204398018"),
    ("1e300", "sequences contain non-finite entries"),
], ids=["eps", "non-finite"])
def test_random_refuses_a_rung_as_materialize_does(capsys, m, message):
    # the batched pass draws eps_k itself, and refuses the rung with the error
    # materialize raises for its lowest refused trial (trial 0 here; trial 1's
    # max |eps_k^2| is 12.494), without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["random", "--delta", "0.5", "--m", m, "--trials", "30", "--n", "200:400:x2"]) == 1
    assert capsys.readouterr() == ("", f"parimplode: error: N=200: {message}\n")
    with np.errstate(over="ignore"), pytest.raises(errors.InvalidSpecError) as exc_info:
        materialize(RandomSchedule(0.5, UniformSymmetric(float(m)), 0, 0), 200)
    assert str(exc_info.value) == f"N=200: {message}"


def test_random_exits_2_when_every_trial_of_a_rung_fails(capsys):
    # every step is admissible (|eps_k| <= 0.9903), but each of the 30 trials
    # passes 1e100, as run_recurrences finds: a numerical failure naming the
    # rung, where no quantile can be taken
    rc = main(["random", "--delta", "1", "--m", "162201600", "--trials", "30", "--n", "12800"])
    assert rc == 2
    assert capsys.readouterr() == ("", "parimplode: numerical failure: all 30 trials failed at N=12800 "
                                       "(trial 0: |q_6743| exceeded 1e100; schedule is far outside "
                                       "the perturbative regime)\n")


def _replace_handler(monkeypatch, command, handler):
    _, help_text, fields = cli._COMMANDS[command]
    monkeypatch.setitem(cli._COMMANDS, command, (handler, help_text, fields))


@pytest.mark.parametrize("exc_type", _ERRORS, ids=lambda c: c.__name__)
def test_exit_code_by_error_class(monkeypatch, capsys, exc_type):
    def handler(cfg):
        raise exc_type([(100, "boom")]) if exc_type is errors.SweepError else exc_type("boom")

    _replace_handler(monkeypatch, "oracle", handler)
    usage = exc_type in (errors.UsageError, errors.InvalidSpecError)
    assert main(["oracle"]) == (1 if usage else 2)
    prefix = "parimplode: error: " if usage else "parimplode: numerical failure: "
    assert capsys.readouterr().err.startswith(prefix)


@pytest.mark.parametrize("command", sorted(_FLAGS))
def test_help_lists_every_flag_with_help(capsys, command):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    helps = {opt: a.help for a in sub.choices[command]._actions for opt in a.option_strings}
    assert sorted(helps) == sorted(_FLAGS[command] + ["-h", "--help"])
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    text = "".join(capsys.readouterr().out.split())  # argparse wraps at any width
    for flag in _FLAGS[command]:
        assert helps[flag] and "".join(helps[flag].split()) in text, flag


def test_the_reused_parser_carries_nothing_between_calls(monkeypatch, tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.chdir(tmp_path)
    ladder = ["--theorem", "A", "--n", "100:400:x2", "--out", "rates.csv"]
    assert main(["sweep", "--extended", *ladder]) == 0
    extended = Path("rates.csv").read_bytes()
    assert main(["sweep", *ladder]) == 0
    write_rate_csv(run_sweep(TheoremA(1), [100, 200, 400]), "plain.csv")
    assert Path("rates.csv").read_bytes() == Path("plain.csv").read_bytes() != extended
    capsys.readouterr()

    def valid():
        assert main(["sweep", *ladder]) == 0
        return Path("rates.csv").read_bytes(), capsys.readouterr().out

    first = valid()
    # a usage error that stops argparse mid-parse, then a help text
    for argv, code in ((["sweep", "--theorem", "A", "--out", "x.csv"], 1), (["sweep", "--help"], 0)):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == code
    capsys.readouterr()
    assert valid() == first


_FRESH = {
    "sweep": ["sweep", "--theorem", "B", "--case", "2", "--n", "100:800:x2", "--out", "out.csv"],
    "random": ["random", "--delta", "0.5", "--trials", "30", "--n", "200:400:x2",
               "--out-trials", "trials.csv", "--out-summary", "out.csv"],
    "oracle": ["oracle", "--trials", "5", "--n-max", "64"],
}


@pytest.mark.parametrize("command", sorted(_FRESH))
def test_in_process_runs_match_a_fresh_process(monkeypatch, tmp_path, capsys, command):
    # what a second main() call in one process writes is what a one-shot
    # console run writes: exit code, stdout, stderr and every output file
    def outputs(directory):
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    src = str(Path(parimplode.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    (tmp_path / "fresh").mkdir()
    done = subprocess.run([sys.executable, "-m", "parimplode.cli", *_FRESH[command]],
                          cwd=tmp_path / "fresh", capture_output=True, env=env, timeout=60)
    fresh = (done.returncode, done.stdout.decode(), done.stderr.decode(), outputs(tmp_path / "fresh"))
    assert fresh[0] == 0 and fresh[1], fresh[2]
    for run in ("first", "second"):
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)
        code = main(_FRESH[command])
        assert (code, *capsys.readouterr(), outputs(tmp_path / run)) == fresh, run


_README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
# the README's CLI block, one argv per `parimplode ...` line
_README_BLOCK = _README.split("\n## CLI\n", 1)[1].split("```", 2)[1]
_README_COMMANDS = [shlex.split(line)[1:] for line in _README_BLOCK.splitlines()
                    if line.startswith("parimplode ")]


def test_readme_cli_block_is_found():
    assert len(_README_COMMANDS) == 7


@pytest.mark.parametrize("argv", _README_COMMANDS, ids=[" ".join(a[:1]) for a in _README_COMMANDS])
def test_readme_cli_commands_exit_0(monkeypatch, tmp_path, capsys, argv):
    # each documented example runs as written, outputs landing in tmp_path
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0, capsys.readouterr().err


def test_readme_library_tour_prints_the_lines_it_shows(capsys):
    # the tour runs as written and prints the band lines it shows as comments
    tour = _README.split("\n## Library tour\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    shown = [line[2:] for line in tour.splitlines() if line.startswith("# band ")]
    exec(tour, {})
    assert capsys.readouterr().out.splitlines() == shown and len(shown) == 3


def test_all_exports_resolve_and_none_is_a_module():
    # `from parimplode import *` binds the public names, not the submodules
    # that importing them binds on the package
    assert parimplode.__all__
    for name in parimplode.__all__:
        assert not isinstance(getattr(parimplode, name), types.ModuleType), name
    namespace = {}
    exec("from parimplode import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(parimplode.__all__)
