"""CLI surface: ladder parsing, exit codes, config merge, output determinism."""
import argparse
import json
import shlex
import warnings
from pathlib import Path

import pytest

from parimplode import UsageError, build_example, cli, errors, iterate_skew
from parimplode.bands import check
from parimplode.cli import main, parse_ladder

# every subcommand's flags besides --config and --help; pinned here, apart
# from the option table, so that a flag dropped from the table shows
_SCHEDULE_FLAGS = ["--theorem", "--case", "--quadratic-noncvg", "--amplitude", "--eps-amp",
                   "--pair-amp", "--pair-bound", "--rot-coeff"]
_FLAGS = {
    "sweep": _SCHEDULE_FLAGS + ["--n", "--out", "--svg", "--assert", "--extended",
                                "--oracle-limit", "--threads"],
    "random": ["--delta", "--trials", "--seed", "--n", "--dist", "--m", "--out-trials",
               "--out-summary", "--svg", "--assert", "--threshold", "--lambda-rule",
               "--lambda-value", "--threads"],
    "counterexample": ["--n", "--out", "--svg", "--assert", "--extended", "--threads"],
    "skew": ["--example", "--n", "--out", "--svg", "--assert", "--extended", "--oracle-limit"],
    "oracle": ["--trials", "--n-max", "--seed"],
    "diagnose-sum": _SCHEDULE_FLAGS + ["--n"],
}
# a value each typed, choice or switch flag accepts; the rest take any string
_DOC_VALUES = {"--theorem": "b", "--case": 2, "--quadratic-noncvg": True, "--amplitude": 0.25,
               "--eps-amp": 0.5, "--pair-amp": 0.75, "--pair-bound": 1.5, "--rot-coeff": 2.5,
               "--assert": True, "--extended": False, "--oracle-limit": 64, "--threads": 2,
               "--delta": 0.5, "--trials": 40, "--seed": 3, "--dist": "rademacher", "--m": 2.0,
               "--threshold": 0.5, "--lambda-rule": "fixed", "--lambda-value": 0.125,
               "--example": 4, "--n-max": 256}
_ERRORS = sorted((c for c in vars(errors).values() if isinstance(c, type)
                  and issubclass(c, errors.ParimplodeError) and c is not errors.ParimplodeError),
                 key=lambda c: c.__name__)


def test_parse_ladder_geometric():
    assert parse_ladder("100:12800:x2") == [100, 200, 400, 800, 1600, 3200, 6400, 12800]
    assert parse_ladder("100:150:x1.5") == [100, 150]


def test_parse_ladder_arithmetic_and_single():
    assert parse_ladder("10:40:+10") == [10, 20, 30, 40]
    assert parse_ladder("512") == [512]
    assert parse_ladder(512) == [512]
    assert parse_ladder([100, 200]) == [100, 200]
    assert parse_ladder([100.0, "200"]) == [100, 200]  # integral, as an int flag takes them


def test_parse_ladder_errors():
    for bad in ("abc", "100:200", "100:200:y2", "100:200:x0.5", "100:200:+0",
                "200:100:x2", "a:b:x2", [], "100:200:xinf", "100:200:xnan"):
        with pytest.raises(UsageError, match="^n: "):
            parse_ladder(bad)


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


def test_sweep_eps_amp_needs_family_b(capsys):
    rc = main(["sweep", "--theorem", "A", "--eps-amp", "1.0", "--n", "100:400:x2"])
    assert rc == 1
    assert "eps_amp" in capsys.readouterr().err


def test_random_usage_errors(capsys):
    for flags, field in ((["--delta", "0", "--trials", "50"], "delta"),
                         (["--delta", "0.5", "--trials", "20"], "trials:"),
                         (["--delta", "0.5", "--trials", "0"], "trials:")):
        assert main(["random", *flags]) == 1
        assert capsys.readouterr().err.startswith(f"parimplode: error: {field} ")


@pytest.mark.parametrize("flags, field", [
    (["--delta", "nan"], "delta"),
    (["--delta", "inf"], "delta"),
    (["--delta", "0.5", "--threshold", "nan"], "threshold"),
])
def test_random_rejects_non_finite_values(capsys, flags, field):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["random", "--trials", "30", "--n", "200", *flags]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"parimplode: error: {field} "), out.err


def test_unknown_config_field_named(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"delta": 0.5, "trails": 60}))
    assert main(["random", "--config", str(cfg)]) == 1
    assert "trails" in capsys.readouterr().err


def test_config_merge_flags_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"delta": 0.5, "trials": 50, "seed": 1, "n": "200"}))
    summary = tmp_path / "summary.csv"
    rc = main(["random", "--config", str(cfg), "--trials", "30",
               "--out-summary", str(summary)])
    assert rc == 0
    row = summary.read_text().split("\n")[1].split(",")
    assert row[0] == "200" and row[2] == "30"  # flag beat the document


def test_sweep_plain_hits_wronskian_gate_at_large_n(capsys):
    # regression pin: binary64 accumulation noise crosses the 1e-9
    # conservation gate near N ~ 1e4 for pair-cancelling angles, and that
    # must surface as a numerical failure, not as a data point
    rc = main(["sweep", "--theorem", "B", "--case", "2", "--n", "12800"])
    assert rc == 2
    assert "Wronskian" in capsys.readouterr().err


def test_sweep_extended_clears_the_same_rung(capsys):
    rc = main(["sweep", "--theorem", "B", "--case", "2", "--n", "12800", "--extended"])
    assert rc == 0
    assert "N=12800" in capsys.readouterr().out


def test_random_assert_reports_slope_miss(capsys):
    rc = main(["random", "--delta", "0.5", "--trials", "30", "--seed", "1",
               "--n", "200:800:x2", "--assert"])
    assert rc == 3
    assert "slope" in capsys.readouterr().err


def test_sweep_csv_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--theorem", "A", "--case", "1", "--n", "100:400:x2",
                 "--out", str(a)]) == 0
    assert main(["sweep", "--theorem", "A", "--case", "1", "--n", "100:400:x2",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_random_csvs_deterministic(tmp_path):
    args = ["random", "--delta", "0.5", "--trials", "30", "--seed", "2", "--n", "100:200:x2"]
    t1, s1 = tmp_path / "t1.csv", tmp_path / "s1.csv"
    t2, s2 = tmp_path / "t2.csv", tmp_path / "s2.csv"
    assert main(args + ["--out-trials", str(t1), "--out-summary", str(s1)]) == 0
    assert main(args + ["--out-trials", str(t2), "--out-summary", str(s2)]) == 0
    assert t1.read_bytes() == t2.read_bytes()
    assert s1.read_bytes() == s2.read_bytes()


def test_svg_output(tmp_path):
    svg = tmp_path / "plot.svg"
    rc = main(["sweep", "--theorem", "A", "--case", "1", "--n", "100:400:x2",
               "--svg", str(svg)])
    assert rc == 0
    text = svg.read_text()
    assert text.startswith("<?xml") and "<svg" in text


def test_counterexample_rejects_odd_ladder(capsys):
    assert main(["counterexample", "--n", "501:1001:x2"]) == 1
    assert "even" in capsys.readouterr().err


def test_counterexample_small_run(tmp_path, capsys):
    out = tmp_path / "ce.csv"
    rc = main(["counterexample", "--n", "500:2000:x2", "--out", str(out), "--assert"])
    assert rc == 0
    lines = out.read_text().split("\n")
    assert lines[0] == "N,f_coeff_err,f_qN_abs,g_coeff_err,g_qN_abs"
    assert lines[1] == ("500,0.6366721319830887,0.63664699913272305,"
                        "0.015936139160110566,0.0080000055674323001")


def test_skew_requires_example(capsys):
    assert main(["skew", "--n", "100:400:x2"]) == 1
    assert "example" in capsys.readouterr().err


def test_skew_assert_example4(capsys):
    rc = main(["skew", "--example", "4", "--extended", "--assert"])
    assert rc == 0
    assert "fit fiber_coeff_err" in capsys.readouterr().out
    # a short ladder ends above the top-rung band: |w_N| = 1.25e-3 at N = 800
    assert main(["skew", "--example", "4", "--n", "100:800:x2", "--assert"]) == 3
    assert "|w_N| 1.3e-03 at N=800" in capsys.readouterr().err


@pytest.mark.parametrize("ladder", [[400, 200, 100], [100, 100, 100]])
def test_skew_rejects_a_ladder_not_strictly_increasing(tmp_path, capsys, ladder):
    # --assert judges the last rung as the top one, so the rungs must rise
    assert _run_with_config(tmp_path, ["skew", "--example", "4", "--assert"], {"n": ladder}) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("parimplode: error: n: ladder must be strictly increasing")
    assert not captured.out


def test_assert_quotes_the_checker_slope(capsys):
    # the band fit reads values above the floor; the printed fit every value > 0
    ns = parse_ladder("100:12800:x2")
    rows = [iterate_skew(build_example(3, n), n, extended=True) for n in ns]
    (_, detail), *_ = check("skew", {"N": ns, "fiber_coeff_err": [r.fiber_coeff_err for r in rows],
                                     "|w_N|": [abs(r.w_final) for r in rows]})
    assert main(["skew", "--example", "3", "--extended", "--assert"]) == 3
    assert detail.startswith("fiber_coeff_err slope +2.362 ")
    assert capsys.readouterr().err == f"parimplode: assertion failed: {detail}\n"


def test_oracle_small_run(capsys):
    rc = main(["oracle", "--trials", "5", "--n-max", "64"])
    assert rc == 0
    assert "max projective deviation" in capsys.readouterr().out


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_oracle_needs_a_trial(capsys, trials):
    # a gate over no trials would pass on no data
    assert main(["oracle", "--trials", trials]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parimplode: error: trials: must be >= 1, got {trials}\n"


@pytest.mark.parametrize("argv", [
    ["sweep", "--theorem", "A", "--n", "100"],
    ["random", "--delta", "0.5"],
    ["counterexample"],
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
def test_config_accepts_every_field(monkeypatch, tmp_path, command):
    seen = []
    _replace_handler(monkeypatch, command, lambda cfg: seen.append(cfg) or 0)
    doc = {flag[2:].replace("-", "_"): _DOC_VALUES.get(flag, f"value of {flag}")
           for flag in _FLAGS[command]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main([command, "--config", str(cfg)]) == 0
    assert seen == [doc]


@pytest.mark.parametrize("command", sorted(_FLAGS))
def test_help_lists_every_flag_with_help(capsys, command):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    helps = {opt: a.help for a in sub.choices[command]._actions for opt in a.option_strings}
    assert sorted(helps) == sorted(_FLAGS[command] + ["--config", "-h", "--help"])
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    text = "".join(capsys.readouterr().out.split())  # argparse wraps at any width
    for flag in _FLAGS[command] + ["--config"]:
        assert helps[flag] and "".join(helps[flag].split()) in text, flag


def _run_with_config(tmp_path, argv, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    return main(argv + ["--config", str(cfg)])


@pytest.mark.parametrize("command, doc, field", [
    ("oracle", {"trials": "many"}, "trials"),
    ("oracle", {"trials": 50.7}, "trials"),
    ("oracle", {"trials": True}, "trials"),
    ("oracle", {"trials": [50]}, "trials"),
    ("random", {"delta": 0.5, "trials": 30.5}, "trials"),
    ("random", {"delta": "half"}, "delta"),
    ("random", {"delta": 0.5, "dist": "gauss"}, "dist"),
    ("sweep", {"theorem": "A", "n": "100", "extended": "false"}, "extended"),
    ("sweep", {"theorem": "A", "n": [100.7, 200]}, "n"),
    ("sweep", {"theorem": "A", "n": True}, "n"),
    ("sweep", {"theorem": "A", "n": ["abc"]}, "n"),
])
def test_config_values_take_the_flag_types(tmp_path, capsys, command, doc, field):
    # each of these values is one the flag would refuse; none may be cast or truncated
    assert _run_with_config(tmp_path, [command], doc) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"parimplode: error: {field}: expected "), err


@pytest.mark.parametrize("trials", [50, 50.0, "50"])
def test_config_integral_values_run_as_the_flag(tmp_path, capsys, trials):
    assert main(["oracle", "--trials", "50", "--n-max", "64"]) == 0
    want = capsys.readouterr()
    assert _run_with_config(tmp_path, ["oracle"], {"trials": trials, "n_max": 64}) == 0
    assert capsys.readouterr() == want


def test_config_null_reads_as_left_out(tmp_path, capsys):
    assert _run_with_config(tmp_path, ["oracle"], {"trials": None, "n_max": 16}) == 0
    assert capsys.readouterr().out.startswith("oracle: 200 trials x 1 sizes")
    assert _run_with_config(tmp_path, ["random"], {"delta": None}) == 1
    assert "delta: required" in capsys.readouterr().err


# the README's CLI block, one argv per `parimplode ...` line
_README_BLOCK = (Path(__file__).resolve().parents[1] / "README.md").read_text() \
    .split("\n## CLI\n", 1)[1].split("```", 2)[1]
_README_COMMANDS = [shlex.split(line)[1:] for line in _README_BLOCK.splitlines()
                    if line.startswith("parimplode ")]


def test_readme_cli_block_is_found():
    assert len(_README_COMMANDS) == 7


@pytest.mark.parametrize("argv", _README_COMMANDS, ids=[" ".join(a[:1]) for a in _README_COMMANDS])
def test_readme_cli_commands_exit_0(monkeypatch, tmp_path, capsys, argv):
    # each documented example runs as written, outputs landing in tmp_path
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0, capsys.readouterr().err
