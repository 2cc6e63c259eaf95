"""Random ensembles: tail bounds, quantiles, determinism, measured scaling."""
import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from parimplode import (
    EnsembleSummary,
    IdentityViolationError,
    InvalidSpecError,
    RandomSchedule,
    RecurrenceOverflowError,
    UniformSymmetric,
    azuma_tail_bound,
    fit_loglog,
    martingale_check,
    materialize,
    quantile_nearest_rank,
    run_ensemble,
    run_recurrences,
    union_bound,
)
from parimplode import randomlab
from parimplode.randomlab import (
    SUMMARY_CSV_HEADER,
    TRIAL_CSV_HEADER,
    MartingaleCheck,
    proof_lambda,
    write_summary_csv,
    write_trial_csv,
)

from conftest import reference_plain


def test_azuma_bound_closed_form():
    # exponent = -lam^2 N^(2(1+delta)) / (2 M^2 n)
    got = azuma_tail_bound(0.1, n=1, N=10, delta=0.5, M=1.0)
    assert got == pytest.approx(math.exp(-5.0), rel=1e-12)
    assert azuma_tail_bound(1e-9, 1, 10, 0.5, 1.0) == pytest.approx(1.0, abs=1e-6)
    for bad in ((0.0, 1, 10, 0.5, 1.0), (0.1, 0, 10, 0.5, 1.0),
                (0.1, 1, 0, 0.5, 1.0), (0.1, 1, 10, 0.0, 1.0), (0.1, 1, 10, 0.5, 0.0)):
        with pytest.raises(ValueError):
            azuma_tail_bound(*bad)


def test_prop_lambda_makes_exponent_n_independent():
    N, delta = 400, 0.5
    want = math.exp(-float(N) ** (delta - 1.0))
    for n in (1, 7, N // 2, N + 1):
        lam = float(proof_lambda(n, N, delta))
        assert azuma_tail_bound(lam, n, N, delta, 1.0) == pytest.approx(want, rel=1e-12)


def test_union_bound_is_sum_of_identical_terms():
    # (N+1) exp(-N^(delta-1)/M^2): at M = 1 the exponent is at most 1 for
    # every delta <= 1, so the bound is vacuous at any N >= 2
    N, delta = 200, 0.5
    got = union_bound(N, delta, 1.0)
    assert got == pytest.approx((N + 1) * math.exp(-float(N) ** (delta - 1.0)), rel=1e-12)
    assert got > 1.0
    assert union_bound(800, 1.0, 0.25) == pytest.approx(801 * math.exp(-16.0), rel=1e-12)


def test_quantile_nearest_rank():
    vals = [4.0, 2.0, 1.0, 3.0]
    assert quantile_nearest_rank(vals, 0.5) == 2.0
    assert quantile_nearest_rank(vals, 0.9) == 4.0
    assert quantile_nearest_rank(vals, 1.0) == 4.0
    assert quantile_nearest_rank(vals, 0.001) == 1.0
    with pytest.raises(ValueError):
        quantile_nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        quantile_nearest_rank(vals, 0.0)
    with pytest.raises(ValueError):
        quantile_nearest_rank(vals, 1.5)


def test_run_ensemble_validation():
    dist = UniformSymmetric(1.0)
    with pytest.raises(ValueError):
        run_ensemble(0.0, dist, [100], trials=30, seed=0)
    with pytest.raises(ValueError):
        run_ensemble(0.5, dist, [100], trials=29, seed=0)
    for ladder in ([3], [], [200, 200], [400, 200]):
        # the rule of run_sweep and every CLI ladder: non-empty, rising, N >= 4
        with pytest.raises(ValueError, match="^ladder must be"):
            run_ensemble(0.5, dist, ladder, trials=30, seed=0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InvalidSpecError, match="delta"):
            run_ensemble(bad, dist, [100], trials=30, seed=0)


@pytest.mark.parametrize("ladder", [[400, 200, 100], [400, 200, 200]])
def test_run_ensemble_rejects_a_ladder_not_strictly_increasing(ladder):
    # the random ensemble follows the rung rule of run_sweep
    with pytest.raises(ValueError, match=r"^ladder must be strictly increasing with every N >= 4, got "):
        run_ensemble(0.5, UniformSymmetric(1.0), ladder, trials=30, seed=0)


def test_run_ensemble_deterministic():
    a = run_ensemble(0.5, UniformSymmetric(1.0), [50, 100], trials=30, seed=7)
    b = run_ensemble(0.5, UniformSymmetric(1.0), [50, 100], trials=30, seed=7)
    assert a.summaries == b.summaries
    assert a.records == b.records
    assert a.failures == [] and b.failures == []
    assert [s.N for s in a.summaries] == [50, 100]
    assert all(s.trials == 30 for s in a.summaries)


def test_ensemble_matches_single_trial_path_bitwise():
    # the vectorized all-trials sweep must reproduce the scalar schedule
    # materialization exactly, not just approximately; N = 600 crosses two
    # block edges, so eps_k is drawn per block on one path and at once on the
    # other.  At M = 40550400 every step is admissible (|eps_k| <= 0.99), but
    # the scalar path refuses 22 of the 30 trials past 1e100: the ensemble
    # records exactly the other 8, and names each failure as run_recurrences does
    for delta, m, N, seed, kept in ((0.5, 1.0, 600, 9, 30), (1.0, 40550400.0, 6400, 1, 8)):
        res = run_ensemble(delta, UniformSymmetric(m), [N], trials=30, seed=seed)
        scalar = {}
        for trial in range(30):
            seqs = materialize(RandomSchedule(delta, UniformSymmetric(m), seed=seed, trial=trial), N)
            try:
                triple = run_recurrences(seqs)
                scalar[trial] = (triple.q[N], triple.q[N + 1])
            except RecurrenceOverflowError as exc:
                scalar[trial] = str(exc)
        assert [rec.trial for rec in res.records] == [t for t, v in scalar.items() if isinstance(v, tuple)]
        assert len(res.records) == kept
        for rec in res.records:
            assert (rec.q_N, rec.q_N1) == scalar[rec.trial]
        assert res.failures == [(N, t, v) for t, v in scalar.items() if isinstance(v, str)]
    assert res.failures[0] == (6400, 1, "|q_6263| exceeded 1e100; schedule is far outside "
                                        "the perturbative regime")


def _reference_trials_at(N, delta, dist, trials, seed):
    # _run_trials_at as a column loop: every array (trials, N+2), one step of
    # every trial at a time, in the increment form with rho_k = 1
    t_idx = np.arange(trials, dtype=np.uint64)
    k_idx = np.arange(N + 2, dtype=np.uint64)
    eta = dist.draw(seed, t_idx[:, None], k_idx[None, :])
    eps = math.pi / N + eta / N ** (1.0 + delta)
    eps[:, 0] = 0.0
    es = eps * eps
    theta = math.pi / N
    d = 4.0 * math.sin(math.pi / (2 * N)) ** 2 - es

    q = np.empty((trials, N + 2))
    q[:, 0] = 0.0
    q[:, 1] = 1.0
    r_prev = np.ones(trials)
    r_cur = np.ones(trials)
    dq = np.ones(trials)
    dr = np.zeros(trials)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, N + 1):
            dq = dq - es[:, k] * q[:, k]
            dr = dr - es[:, k] * r_cur
            q[:, k + 1] = q[:, k] + dq
            r_prev, r_cur = r_cur, r_cur + dr

        phases = np.exp(1j * theta * np.arange(N + 1))
        terms = d[:, : N + 1] * q[:, : N + 1] * phases[None, :]
        delta_partial = np.cumsum(terms, axis=1)
        lam = np.sqrt(2.0 * np.arange(1, N + 2)) * N ** -(1.5 + delta / 2.0)
        ratios = np.abs(delta_partial) / lam[None, :]
        exceeded = np.max(ratios, axis=1) >= 1.0

        a_coef = q[:, N + 1] - q[:, N]
        b_coef = r_prev - r_cur
        c_coef = -q[:, N]
        d_coef = r_prev
        ce = np.abs(a_coef / d_coef - 1.0) + np.abs(b_coef / d_coef) + np.abs(c_coef / d_coef)

    ok = np.isfinite(q[:, N]) & np.isfinite(q[:, N + 1]) & np.isfinite(ce) & (np.abs(d_coef) > 1e-12)
    return {"q_N": q[:, N], "q_N1": q[:, N + 1], "coeff_err": ce, "exceeded": exceeded, "ok": ok}


def _assert_same_outputs(got, want):
    # the pass's e_max and failed trials are checked against the scalar path
    # (test_ensemble_matches_single_trial_path_bitwise and tests/test_cli.py)
    assert sorted(got) == sorted([*want, "e_max", "failed"])
    for key, value in want.items():
        if value.dtype == bool:
            assert got[key].tolist() == value.tolist(), key
        else:
            assert got[key].view(np.uint64).tolist() == value.view(np.uint64).tolist(), key


# the block edges of the step loop sit at 64, 128, ... steps; the last two
# cases see trials on both sides of the threshold past a block edge
_EXCEEDANCE_CASES = [(4, 0.5, 1.0), (1000, 1.0, 1.0), (513, 0.5, 0.25)]


# "prop-uniform": the proof's lambda_n, eta_k uniform on [-1, 1]
@pytest.mark.parametrize("N, delta, m", [pytest.param(N, 0.5, 1.0, id=f"prop-uniform-{N}")
                                         for N in (4, 5, 63, 64, 65, 129, 255, 256, 257, 258, 512, 513, 1000)]
                         + _EXCEEDANCE_CASES[1:])
def test_trials_at_bit_identical_to_column_loop(N, delta, m):
    args = (N, delta, UniformSymmetric(m), 40, 3)
    _assert_same_outputs(randomlab._run_trials_at(*args), _reference_trials_at(*args))


@pytest.mark.parametrize("N, delta, m", _EXCEEDANCE_CASES)
def test_bit_identity_cases_see_both_exceedance_outcomes(N, delta, m):
    # the comparison above covers trials on both sides of the threshold
    exceeded = _reference_trials_at(N, delta, UniformSymmetric(m), 40, 3)["exceeded"]
    assert exceeded.any() and not exceeded.all()


# at N = 300 every trial overflows early; at N = 100 some do, and a NaN
# late in a trial's partial sums leaves its maximum NaN and `exceeded` false
@pytest.mark.parametrize("N, m", [(300, 1e6), (100, 1e4)])
def test_trials_at_bit_identical_when_trials_diverge(N, m):
    args = (N, 0.01, UniformSymmetric(m), 40, 2)
    want = _reference_trials_at(*args)
    assert not want["ok"].all()
    assert not np.isfinite(want["q_N"]).all()
    _assert_same_outputs(randomlab._run_trials_at(*args), want)


@pytest.mark.parametrize("run", [
    lambda: randomlab._run_trials_at(6400, 0.5, UniformSymmetric(1.0), 200, 1),
    lambda: martingale_check(0.5, UniformSymmetric(1.0), 6400, 200, 1),
], ids=["ensemble", "martingale"])
def test_trials_at_memory_is_bounded_by_the_block(run):
    # the column loop held every (trials, N+2) array at once, 113 MB for the
    # ensemble here; both consumers of the block pass must stay O(trials x block)
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_ensemble_independent_of_worker_count(monkeypatch, two_cpus, watch_pids):
    ran = watch_pids(randomlab, "_step_blocks")
    args = (0.5, UniformSymmetric(1.0), [100, 300, 600], 30, 11)
    one = run_ensemble(*args, max_workers=1)
    assert ran() == "parent"
    pooled = run_ensemble(*args)
    assert ran() == "both"
    assert one.records == pooled.records
    assert one.summaries == pooled.summaries
    assert one.failures == pooled.failures
    monkeypatch.setenv("PARIMPLODE_THREADS", "1")
    assert run_ensemble(*args) == pooled
    assert ran() == "parent"


def test_ensemble_summary_pins():
    # frozen from this build: delta=0.5, uniform, 50 trials, seed=1; the
    # exact kernel's q_N give medians 0.16667692985277976 and 0.12670437994046324
    # and q90 0.3796319540673966
    res = run_ensemble(0.5, UniformSymmetric(1.0), [200, 400], trials=50, seed=1)
    s200, s400 = res.summaries
    assert s200.median_qN == pytest.approx(0.16667692985281668, rel=1e-12)
    assert s200.q90_qN == pytest.approx(0.379631954067406, rel=1e-12)
    assert s200.exceed_count == 50
    assert s200.azuma_bound == pytest.approx(187.27801610810229, rel=1e-12)
    assert s400.median_qN == pytest.approx(0.12670437994036055, rel=1e-12)
    assert s400.azuma_bound == pytest.approx(381.44299922478632, rel=1e-12)


def test_ensemble_summary_validation():
    with pytest.raises(ValueError):
        EnsembleSummary(N=100, delta=0.5, trials=50, median_qN=0.1, q90_qN=0.2,
                        exceed_count=51, azuma_bound=1.0)
    with pytest.raises(ValueError):
        EnsembleSummary(N=100, delta=0.5, trials=50, median_qN=0.1, q90_qN=0.2,
                        exceed_count=-1, azuma_bound=1.0)


def test_exceedance_rows_vacuous_flag():
    res = run_ensemble(0.5, UniformSymmetric(1.0), [50, 100], trials=30, seed=2)
    assert all(s.azuma_bound >= 1.0 for s in res.summaries)  # M = 1: vacuous
    # a summary quotes the union bound at its own M, which a smaller M
    # brings below 1; no trial's partial sums reach lambda_n there
    res = run_ensemble(1.0, UniformSymmetric(0.25), [400, 800], 30, 0)
    assert [s.azuma_bound for s in res.summaries] == [union_bound(n, 1.0, 0.25) for n in (400, 800)]
    assert res.summaries[1].azuma_bound == pytest.approx(9.0e-5, rel=0.01)  # < 1: not vacuous
    assert [s.exceed_count for s in res.summaries] == [0, 0]


def test_martingale_check_pins():
    # the exact-sum reference below gives 1.4241234750075598e-15 here
    chk = martingale_check(0.5, UniformSymmetric(1.0), N=128, trials=50, seed=3)
    assert chk.max_identity_residual == pytest.approx(1.425075335514947e-15, rel=1e-6, abs=0)
    assert chk.max_identity_residual <= 1e-10
    assert chk.mean_increment_abs <= 5.0 * chk.increment_stderr


def _martingale_sum(d, q, theta, n):
    # delta_n = sum_{k<n} d_k q_k e^{i k theta}, one pairwise sum per prefix
    k = np.arange(0, n)
    d = np.asarray(d, dtype=complex)
    return complex(np.sum(d[:n] * q[:n] * np.exp(1j * k * theta)))


def _reference_martingale_check(delta, dist, N, trials, seed):
    # martingale_check as it was: _martingale_sum on every prefix, with the
    # residual worked out a second time; each delta_n is its own pairwise sum
    theta = math.pi / N
    n_mid = max(2, N // 2)
    max_resid = 0.0
    increments = np.empty(trials, dtype=complex)
    for t in range(trials):
        seqs = materialize(RandomSchedule(delta=delta, dist=dist, seed=seed, trial=t), N)
        triple = reference_plain(seqs)
        d = 4.0 * math.sin(theta / 2) ** 2 - seqs.eps_sq.real
        for n in range(1, N + 2):
            delta_n = _martingale_sum(d, triple.q, theta, n)
            u_n = math.sin(n * theta) / math.sin(theta)
            lhs = math.sin(theta) * (triple.q[n].real - u_n)
            rhs = -(delta_n * cmath.exp(-1j * n * theta)).imag
            max_resid = max(max_resid, abs(lhs - rhs))
        increments[t] = d[n_mid - 1] * triple.q[n_mid - 1] * cmath.exp(1j * (n_mid - 1) * theta)
    mean_inc = complex(np.mean(increments))
    stderr = float(np.std(increments) / math.sqrt(trials))
    return MartingaleCheck(max_resid, abs(mean_inc), stderr)


def _exact_sum_max_residual(delta, dist, N, trials, seed):
    # the largest identity residual with every delta_n summed exactly: the
    # binary64 terms d_k q_k e^{ik theta}, q_n, U_n and the phases are taken
    # as exact rationals, and only the final residual is rounded
    theta = math.pi / N
    sin_t = Fraction(math.sin(theta))
    worst = Fraction(0)
    for t in range(trials):
        seqs = materialize(RandomSchedule(delta, dist, seed, t), N)
        q = reference_plain(seqs).q.real
        d = 4.0 * math.sin(theta / 2) ** 2 - seqs.eps_sq.real
        re = im = Fraction(0)
        for n in range(1, N + 2):
            term = complex(d[n - 1] * q[n - 1] * cmath.exp(1j * (n - 1) * theta))
            re += Fraction(term.real)
            im += Fraction(term.imag)
            turn = cmath.exp(-1j * n * theta)
            rhs = -(re * Fraction(turn.imag) + im * Fraction(turn.real))
            lhs = sin_t * (Fraction(float(q[n])) - Fraction(math.sin(n * theta) / math.sin(theta)))
            worst = max(worst, abs(lhs - rhs))
    return float(worst)


@pytest.mark.parametrize("N, trials, seed", [(128, 50, 3), (512, 30, 1)])
def test_martingale_check_bit_identical_to_reference(N, trials, seed):
    # the increment statistics are bit for bit those of the per-prefix
    # reference; the residual comes from a running sum, which rounds
    # differently, so it is held against the exact-sum residual instead;
    # at about 1e-15 the residual is down to the rounding of its own last
    # few operations, so the allowance is absolute, 2e-18
    got = martingale_check(0.5, UniformSymmetric(1.0), N, trials, seed)
    want = _reference_martingale_check(0.5, UniformSymmetric(1.0), N, trials, seed)
    as_bits = lambda chk: np.array(chk, dtype=float).view(np.uint64).tolist()
    assert as_bits(got[1:]) == as_bits(want[1:])
    exact = _exact_sum_max_residual(0.5, UniformSymmetric(1.0), N, trials, seed)
    assert got.max_identity_residual == pytest.approx(exact, rel=0, abs=2e-18)


def test_martingale_check_needs_a_trial():
    # with no trial there is nothing to check; a residual of 0 would read as a pass
    with pytest.raises(ValueError, match="trials"):
        martingale_check(0.5, UniformSymmetric(1.0), N=64, trials=0, seed=1)


def _corrupt_step_blocks(monkeypatch, corrupt):
    # wrap the shared pass so that martingale_check sees corrupt(k0, rows, d, partial)
    real = randomlab._step_blocks

    def wrapped(spec, N, trials, seen):
        for block in real(spec, N, trials, seen):
            yield corrupt(*block, trials)

    monkeypatch.setattr(randomlab, "_step_blocks", wrapped)


def test_martingale_check_sees_corrupted_recurrence(monkeypatch):
    # scaling q by 1 + 1e-6 leaves sin(n theta) * 1e-6 of the identity unexplained,
    # about 1e-6 near n = N/2, far over the 1e-8 gate
    def scale_q(k0, rows, d, partial, trials):
        rows = rows.copy()
        rows[:, :trials] *= 1 + 1e-6
        return k0, rows, d, partial

    _corrupt_step_blocks(monkeypatch, scale_q)
    with pytest.raises(IdentityViolationError, match=r"martingale identity residual .* exceeds 1e-08"):
        martingale_check(0.5, UniformSymmetric(1.0), N=128, trials=3, seed=3)


def test_martingale_check_sees_one_corrupted_coefficient(monkeypatch):
    # q_65, the last row of the first 64-step block, recomputed with the
    # coefficient of step 64 off by 1e-6; the next block carries it on, while
    # d_64 and the sums keep the true coefficient.  The identity at n = 65 is
    # then off by sin(theta) * 1e-6 * q_64, about 3e-7
    def bump_coefficient(k0, rows, d, partial, trials):
        if k0 == 1:
            rows[-1, :trials] += 1e-6 * rows[-2, :trials]
        return k0, rows, d, partial

    _corrupt_step_blocks(monkeypatch, bump_coefficient)
    with pytest.raises(IdentityViolationError,
                       match=r"martingale identity residual .* at n=65 exceeds 1e-08"):
        martingale_check(0.5, UniformSymmetric(1.0), N=600, trials=3, seed=3)


def test_martingale_check_fails_a_nan_residual(monkeypatch):
    # one NaN q_76 of trial 1, inside the second block: a block whose largest
    # residual is NaN fails the gate, and the message names that entry
    def spoil_one_q(k0, rows, d, partial, trials):
        if k0 == 65:
            rows[12, 1] = math.nan
        return k0, rows, d, partial

    _corrupt_step_blocks(monkeypatch, spoil_one_q)
    with pytest.raises(IdentityViolationError,
                       match=r"martingale identity residual nan at n=76 exceeds 1e-08"):
        martingale_check(0.5, UniformSymmetric(1.0), N=600, trials=3, seed=3)


@pytest.mark.parametrize("m, N, seed, trial", [(1.0, 4, 1, 0), (1e4, 200, 1, 0), (2830.0, 200, 1, 1),
                                               (14631.0, 600, 5, 4)],
                         ids=["b_k", "eps-over-violation", "lowest-refused-trial", "later-block"])
def test_martingale_check_refuses_what_materialize_refuses(m, N, seed, trial):
    # at N = 4 every trial has |b_k| = 1.414; at M = 1e4 trial 0 has max
    # |eps_k^2| 12.38, and its identity fails at n = 21, yet the refusal
    # wins, as materialize's does on the scalar path; at M = 2830 trial 0
    # is admissible and trial 1 is not; at M = 14631 only trial 4 is
    # refused, by a step the pass reads after the identity fails at n = 307
    with pytest.raises(InvalidSpecError) as want:
        materialize(RandomSchedule(0.5, UniformSymmetric(m), seed, trial), N)
    for t in range(trial):
        materialize(RandomSchedule(0.5, UniformSymmetric(m), seed, t), N)
    with pytest.raises(InvalidSpecError) as got:
        martingale_check(0.5, UniformSymmetric(m), N, 5, seed)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("N, delta", [(3, 0.5), (64, 0.0), (64, float("nan"))])
def test_martingale_check_rejects_bad_spec(N, delta):
    with pytest.raises(InvalidSpecError):
        martingale_check(delta, UniformSymmetric(1.0), N=N, trials=3, seed=3)


def test_median_scaling_follows_sqrt_n_law():
    # measured truth for this ensemble: median |q_N| drifts like N^(1/2-delta),
    # so delta = 1/2 is flat and delta = 1 decays like 1/sqrt(N)
    ns = [200, 400, 800, 1600]
    flat = run_ensemble(0.5, UniformSymmetric(1.0), ns, trials=50, seed=1)
    slope_flat = fit_loglog(ns, [s.median_qN for s in flat.summaries]).slope
    assert abs(slope_flat) < 0.4
    decaying = run_ensemble(1.0, UniformSymmetric(1.0), ns, trials=50, seed=1)
    slope_dec = fit_loglog(ns, [s.median_qN for s in decaying.summaries]).slope
    assert -0.9 < slope_dec < -0.2


def test_trial_and_summary_csv_format(tmp_path):
    res = run_ensemble(0.5, UniformSymmetric(1.0), [200], trials=50, seed=1)
    tp, sp = tmp_path / "trials.csv", tmp_path / "summary.csv"
    write_trial_csv(res.records, str(tp))
    write_summary_csv(res.summaries, str(sp))
    tl = tp.read_text().split("\n")
    sl = sp.read_text().split("\n")
    assert tl[0] == TRIAL_CSV_HEADER
    assert sl[0] == SUMMARY_CSV_HEADER
    assert tl[1] == "200,0.5,1,0,-0.27913571536434834,0,-1.2799199578286762,0,0.28101411620998867"
    assert tl[2] == "200,0.5,1,1,0.0044248151556741666,0,-0.99241018133755132,0,0.010745678460469685"
    assert sl[1] == "200,0.5,50,0.16667692985281668,0.37963195406740602,50,187.27801610810229"
    assert len(tl) == 52 and tl[-1] == ""  # header + 50 rows + trailing newline
    # a row of the values 17 digits must spell out: nan, -0.0, infinities and
    # the smallest subnormal, as ioutil.row_format writes them
    odd = randomlab.TrialRecord(N=12, delta=0.25, seed=2**64 - 1, trial=7,
                                q_N=complex(float("nan"), -0.0), q_N1=complex(float("inf"), 5e-324),
                                coeff_err=float("-inf"))
    write_trial_csv([odd], str(tp))
    assert tp.read_text().split("\n")[1] == ("12,0.25,18446744073709551615,7,nan,-0,inf,"
                                             "4.9406564584124654e-324,-inf")
