"""Rate measurement: run_point pins, sweep orchestration, decay fits, CSV bytes."""
import math
import pickle

import pytest

from parimplode import (
    CounterexampleC,
    DecayFit,
    DegenerateMapError,
    InvalidSpecError,
    NonPositiveValueError,
    OracleMismatchError,
    QuadraticNonconvergent,
    RatePoint,
    RecurrenceOverflowError,
    SkewExample,
    SweepError,
    TheoremA,
    TheoremB,
    fit_decay,
    fit_loglog,
    run_point,
    run_sweep,
    write_rate_csv,
)
from parimplode.convergence import RATE_CSV_HEADER
from parimplode.ioutil import requested_workers, worker_count


def _point(n, **overrides):
    base = dict(N=n, coeff_err=1.0, sup_err=1.0, q_N_abs=1.0, q_N1_err=1.0,
                r_N_err=1.0, r_N1_err=1.0, wronskian_resid=0.0)
    base.update(overrides)
    return RatePoint(**base)


def test_exact_rotation_point_pins():
    # frozen from this build (--extended reads 6.995e-16, 6.286e-15, 2.325e-12
    # and 6.552e-10); the invariant is coeff_err <= 1e-9 N throughout
    expected = {10: 2.220446e-16, 100: 7.077430e-15, 1000: 2.291736e-12, 10000: 6.812661e-10}
    for n, ce in expected.items():
        p = run_point(TheoremA(1, amplitude=0.0), n)
        assert p.coeff_err == pytest.approx(ce, rel=1e-5)
        assert p.coeff_err <= 1e-9 * n
        # eps == 0 keeps r pinned to 1 up to a single per-step rounding
        assert p.r_N_err <= 1e-10


def test_quadratic_nonconvergent_point_pin():
    p = run_point(QuadraticNonconvergent(), 1000, extended=True)
    assert p.coeff_err == pytest.approx(1.0062768976185723, rel=1e-9)
    assert abs(p.q_N_abs - 1.0) <= 1e-8
    # q_{N+1} returns to ~0, so its distance from 1 is ~1: order-one
    # coefficients that never shrink with N
    assert p.q_N1_err == pytest.approx(1.0, abs=1e-8)


def test_rate_point_validation():
    with pytest.raises(ValueError):
        _point(100, coeff_err=-1.0)
    with pytest.raises(ValueError):
        _point(100, sup_err=float("nan"))
    with pytest.raises(ValueError):
        _point(100, q_N_abs=float("inf"))


def test_decay_fit_validation():
    with pytest.raises(ValueError):
        DecayFit(slope=-1.0, intercept=0.0, r_squared=1.1, n_points=5)
    with pytest.raises(ValueError):
        DecayFit(slope=-1.0, intercept=0.0, r_squared=0.5, n_points=2)


def test_fit_decay_recovers_exact_power_law():
    pts = [_point(100, q_N_abs=1e-2), _point(1000, q_N_abs=1e-3), _point(10000, q_N_abs=1e-4)]
    fit = fit_decay(pts, "q_N_abs")
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == 3
    assert math.exp(fit.intercept) == pytest.approx(1.0, rel=1e-9)
    with pytest.raises(ValueError, match="unknown RatePoint field"):
        fit_decay(pts, "qN_abs")


def test_fit_loglog_rejects_degenerate_input():
    with pytest.raises(NonPositiveValueError, match="below the floating-point floor"):
        fit_loglog([10, 100, 1000], [1e-3, 0.0, 1e-5])
    with pytest.raises(ValueError):
        fit_loglog([10, 100], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_loglog([10, 100, 1000], [1.0, 2.0])


def test_fit_loglog_flat_series():
    fit = fit_loglog([10, 100, 1000], [2.0, 2.0, 2.0])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 1.0


def test_run_sweep_order_and_validation():
    ns = [100, 200, 400]
    pts = run_sweep(TheoremB(1), ns)
    assert [p.N for p in pts] == ns
    with pytest.raises(ValueError):
        run_sweep(TheoremB(1), [])
    with pytest.raises(ValueError):
        run_sweep(TheoremB(1), [100, 100, 200])
    with pytest.raises(ValueError):
        run_sweep(TheoremB(1), [3, 100])


@pytest.mark.parametrize("ladder", [[400, 200, 100], [100, 100, 100]])
def test_run_sweep_rejects_a_ladder_not_strictly_increasing(ladder):
    # a band read at the top rung needs the top rung last
    with pytest.raises(ValueError, match=r"^ladder must be strictly increasing with every N >= 4, got "):
        run_sweep(SkewExample(4), ladder)


@pytest.mark.parametrize("workers", [1, 2, None])
def test_run_sweep_raises_the_lowest_spec_error(two_cpus, workers):
    # counterexample schedules reject odd N: that is an inadmissible spec, not
    # a numerical failure, so it is raised as is, for the lowest such rung.
    # At the default count the exact kernel's probe of the top rung, 301,
    # meets the error first; the ladder then runs inline and names N=101.
    for extended in (False, True):
        with pytest.raises(InvalidSpecError, match=r"^N=101: CounterexampleC needs even N, got 101$"):
            run_sweep(CounterexampleC("additive_g"), [100, 101, 200, 301],
                      extended=extended, max_workers=workers)


def test_run_sweep_runs_inline_unless_workers_are_asked_for(monkeypatch, two_cpus, watch_pids):
    # by default the binary64 path runs inline, and so does an exact ladder
    # whose top rung has a period (B1, period 8); an exact ladder without
    # one (B5) takes one process per CPU.  An explicit count wins either way.
    from parimplode import convergence

    ran = watch_pids(convergence, "run_point")
    ns = [100, 200, 400, 800]
    inline = run_sweep(TheoremB(1), ns)
    assert ran() == "parent"
    assert run_sweep(TheoremB(1), ns, max_workers=2) == inline
    assert ran() == "both"
    aperiodic = run_sweep(TheoremB(5), ns, extended=True)
    assert ran() == "both"
    periodic = run_sweep(TheoremB(1), ns, extended=True)
    assert ran() == "parent"
    assert run_sweep(TheoremB(1), ns, extended=True, max_workers=2) == periodic
    assert ran() == "both"
    monkeypatch.setenv("PARIMPLODE_THREADS", "1")
    assert run_sweep(TheoremB(5), ns, extended=True) == aperiodic
    assert ran() == "parent"
    monkeypatch.setenv("PARIMPLODE_THREADS", "2")
    assert run_sweep(TheoremB(1), ns) == inline
    assert ran() == "both"
    assert run_sweep(TheoremB(1), ns, extended=True) == periodic
    assert ran() == "both"


def test_run_sweep_reads_the_period_of_the_top_rung(two_cpus, watch_pids):
    # skew example 5 repeats with period 2 at N = 100 and at no higher rung,
    # so its exact ladder still takes one process per CPU
    from parimplode import convergence

    ran = watch_pids(convergence, "run_point")
    run_sweep(SkewExample(5), [100, 200, 400, 800, 1600], extended=True)
    assert ran() == "both"


@pytest.mark.parametrize("workers", [None, 2])
@pytest.mark.parametrize("spec", [TheoremB(1), TheoremB(5)], ids=["periodic", "aperiodic"])
def test_run_sweep_materializes_each_rung_once(monkeypatch, tmp_path, two_cpus, spec, workers):
    # the top rung the default count's probe builds is the one its point
    # runs on; the log is a file, so forked workers' calls show in it
    from parimplode import convergence

    log = tmp_path / "materialized"
    real = convergence.materialize

    def logged(spec, n):
        with open(log, "a") as fh:
            fh.write(f"{n}\n")
        return real(spec, n)

    monkeypatch.setattr(convergence, "materialize", logged)
    ns = [100, 200, 400, 800]
    run_sweep(spec, ns, extended=True, max_workers=workers)
    assert sorted(int(n) for n in log.read_text().split()) == ns


def _failures(err: SweepError):
    return [(n, type(exc), str(exc)) for n, exc in err.failures]


def test_run_sweep_pool_aggregates_failures(monkeypatch):
    # numerical failures at the odd rungs (forked workers inherit the patch):
    # both are reported, inline and pooled alike
    from parimplode import convergence

    real = convergence.run_recurrences

    def overflow_at_odd_n(seqs, extended=False):
        if seqs.N % 2:
            raise RecurrenceOverflowError(f"|q_{seqs.N}| exceeded 1e100")
        return real(seqs, extended)

    monkeypatch.setattr(convergence, "run_recurrences", overflow_at_odd_n)
    ladder = [100, 101, 200, 301]
    with pytest.raises(SweepError) as inline:
        run_sweep(TheoremB(1), ladder, max_workers=1)
    with pytest.raises(SweepError) as pooled:
        run_sweep(TheoremB(1), ladder, max_workers=2)
    assert [(n, type(exc)) for n, exc in pooled.value.failures] == \
        [(101, RecurrenceOverflowError), (301, RecurrenceOverflowError)]
    assert _failures(pooled.value) == _failures(inline.value)
    assert str(pooled.value) == str(inline.value)


def test_sweep_error_survives_pickling():
    err = pickle.loads(pickle.dumps(SweepError([(101, ValueError("odd"))])))
    assert type(err) is SweepError
    assert _failures(err) == [(101, ValueError, "odd")]
    assert str(err) == "1 sweep point(s) failed: N=101: odd"


def test_worker_count_precedence(monkeypatch, two_cpus):
    assert requested_workers(None) is None
    assert worker_count(None) == 2
    assert requested_workers(3) == worker_count(3) == 3
    monkeypatch.setenv("PARIMPLODE_THREADS", "1")
    assert requested_workers(None) == worker_count(None) == 1
    assert worker_count(3) == 3
    with pytest.raises(ValueError, match="^threads: must be >= 1, got 0$"):
        worker_count(0)


@pytest.mark.parametrize("gate, message", [
    ("wronskian_residual", r"^Wronskian residual nan at N=100"),
    ("projective_distance", r"^recurrence vs chain deviation nan at N=100"),
])
def test_run_point_gates_reject_nan(monkeypatch, gate, message):
    # `x > tol` is False for NaN; both gates a rung passes must fail it: the
    # Wronskian's in coefficients_from_qr, the oracle's in run_point
    from parimplode import convergence, recurrences

    module, error = {"wronskian_residual": (recurrences, DegenerateMapError),
                     "projective_distance": (convergence, OracleMismatchError)}[gate]
    monkeypatch.setattr(module, gate, lambda *args: math.nan)
    with pytest.raises(error, match=message):
        run_point(TheoremB(1), 100)


def test_run_point_oracle_gate_is_1e_9(monkeypatch):
    from parimplode import convergence

    monkeypatch.setattr(convergence, "projective_distance", lambda *args: 2e-9)
    with pytest.raises(OracleMismatchError,
                       match=r"^recurrence vs chain deviation 2\.000e-09 at N=100 exceeds 1e-09$"):
        run_point(TheoremB(1), 100)


def test_sup_and_coeff_errors_track_each_other():
    # over the default radius-1/4 disk the quadratic coefficient is damped
    # by ~1/16, so sup_err trails coeff_err by a bounded factor
    for p in run_sweep(TheoremB(1), [100, 200, 400, 800]):
        assert p.sup_err <= p.coeff_err
        assert p.coeff_err <= 32.0 * p.sup_err


def test_write_rate_csv_exact_bytes(tmp_path):
    pts = run_sweep(TheoremA(1), [100, 200])
    out = tmp_path / "rates.csv"
    write_rate_csv(pts, str(out))
    text = out.read_bytes().decode()
    lines = text.split("\n")
    assert lines[0] == RATE_CSV_HEADER
    assert lines[1] == ("100,0.005311601914876664,0.00038676270087632407,"
                        "0.0050005842434243455,0.0050011574970072531,0,0,0")
    assert text.endswith("\n")
    # repeated writes are byte-identical
    out2 = tmp_path / "rates2.csv"
    write_rate_csv(run_sweep(TheoremA(1), [100, 200]), str(out2))
    assert out.read_bytes() == out2.read_bytes()
