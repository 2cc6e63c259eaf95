"""Rate measurement: run_point pins, sweep orchestration, decay fits, CSV bytes."""
import math
import threading

import pytest

from parimplode import (
    CounterexampleC,
    DecayFit,
    NonPositiveValueError,
    OracleMismatchError,
    QuadraticNonconvergent,
    RatePoint,
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
from parimplode.ioutil import worker_count


def _point(n, **overrides):
    base = dict(N=n, coeff_err=1.0, sup_err=1.0, q_N_abs=1.0, q_N1_err=1.0,
                r_N_err=1.0, r_N1_err=1.0, wronskian_resid=0.0)
    base.update(overrides)
    return RatePoint(**base)


def test_exact_rotation_point_pins():
    # frozen from this build; the invariant is coeff_err <= 1e-9 N throughout
    expected = {10: 4.591300e-15, 100: 5.541962e-13, 1000: 5.608315e-09, 10000: 1.123086e-07}
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


def test_run_sweep_aggregates_failures():
    # counterexample schedules reject odd N; both bad rungs must be reported
    with pytest.raises(SweepError) as ei:
        run_sweep(CounterexampleC("additive_g"), [100, 101, 200, 301])
    assert [n for n, _ in ei.value.failures] == [101, 301]
    assert all("even" in str(exc).lower() or "odd" in str(exc).lower()
               for _, exc in ei.value.failures)


def test_run_sweep_runs_inline_unless_workers_are_asked_for(monkeypatch):
    from parimplode import convergence

    threads = set()
    real_run_point = convergence.run_point

    def recording_run_point(*args, **kwargs):
        threads.add(threading.get_ident())
        return real_run_point(*args, **kwargs)

    monkeypatch.delenv("PARIMPLODE_THREADS", raising=False)
    monkeypatch.setattr(convergence, "run_point", recording_run_point)
    ns = [100, 200, 400, 800]
    inline = run_sweep(TheoremB(1), ns)
    assert threads == {threading.get_ident()}
    threads.clear()
    pooled = run_sweep(TheoremB(1), ns, max_workers=2)
    assert threading.get_ident() not in threads
    assert pooled == inline
    threads.clear()
    monkeypatch.setenv("PARIMPLODE_THREADS", "2")
    assert run_sweep(TheoremB(1), ns) == inline
    assert threading.get_ident() not in threads


def test_run_sweep_pool_aggregates_failures():
    with pytest.raises(SweepError) as ei:
        run_sweep(CounterexampleC("additive_g"), [100, 101, 200, 301], max_workers=2)
    assert [n for n, _ in ei.value.failures] == [101, 301]


def test_worker_count_precedence(monkeypatch):
    monkeypatch.delenv("PARIMPLODE_THREADS", raising=False)
    assert worker_count(None, default=1) == 1
    assert worker_count(3, default=1) == 3
    assert worker_count(None) >= 1
    monkeypatch.setenv("PARIMPLODE_THREADS", "2")
    assert worker_count(None, default=1) == 2
    assert worker_count(0, default=1) == 1


@pytest.mark.parametrize("gate, message", [
    ("wronskian_residual", r"^Wronskian residual nan at N=100"),
    ("projective_distance", r"^recurrence vs chain deviation nan at N=100"),
])
def test_run_point_gates_reject_nan(monkeypatch, gate, message):
    # `x > tol` is False for NaN; both gates of run_point must fail it
    from parimplode import convergence

    monkeypatch.setattr(convergence, gate, lambda *args: math.nan)
    with pytest.raises(OracleMismatchError, match=message):
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
    assert lines[1] == ("100,0.0053116019136810475,0.00038676270079854785,"
                        "0.0050005842422536804,0.0050011574958153983,0,0,"
                        "2.5051025916451422e-14")
    assert text.endswith("\n")
    # repeated writes are byte-identical
    out2 = tmp_path / "rates2.csv"
    write_rate_csv(run_sweep(TheoremA(1), [100, 200]), str(out2))
    assert out.read_bytes() == out2.read_bytes()
