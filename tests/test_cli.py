"""CLI surface: ladder parsing, exit codes, config merge, output determinism."""
import argparse
import json
import warnings

import pytest

from parimplode import UsageError, cli, errors
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
    assert main(["random", "--delta", "0", "--trials", "50"]) == 1
    assert main(["random", "--delta", "0.5", "--trials", "20"]) == 1
    err = capsys.readouterr().err
    assert "delta" in err and "trials" in err


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
    rc = main(["skew", "--example", "4", "--n", "100:800:x2", "--assert"])
    assert rc == 0
    assert "fit fiber_coeff_err" in capsys.readouterr().out


def test_oracle_small_run(capsys):
    rc = main(["oracle", "--trials", "5", "--n-max", "64"])
    assert rc == 0
    assert "max projective deviation" in capsys.readouterr().out


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
