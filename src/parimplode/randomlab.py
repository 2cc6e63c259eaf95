"""Monte Carlo lab for additive random schedules eps_k = pi/N + eta_k/N^(1+delta).

With rho == 1 the increment of ``recurrences`` is d_{k+1} = d_k - eps_k^2 x_k
and everything is real; ensembles are vectorized across trials and still
bit-identical to the scalar single-trial path, the plain kernel's real loop
(both take eps_k from ``RandomSchedule.eps``), because that loop does the
same operations on floats, and 1 * d_k is d_k exactly.  The lab also
refuses what that path refuses: a rung that ``materialize`` refuses for some
trial (``run_ensemble`` and ``martingale_check``), and each trial of an
ensemble whose q_k or r_k passes 1e100 (``run_ensemble``).

Every trial of the lab runs in one step-major pass, ``_step_blocks``, over
steps 1..N in blocks of ``_BLOCK`` (64) steps.  A block draws its own
variates, advances q and r of every trial (a buffer row holds one step of
every trial, q then r, so a step is three row ops) and extends the running
martingale sums delta_n.  Only the last two rows and the increments carry
over, so memory is O(trials x block).  The pass allocates its block buffers
(eps_k^2, d_k, the rows and the martingale terms) once, and every block
reuses them; only a block's draw is fresh.  At 200 trials a buffer holds 100
to 200 kB, so the working set stays in the CPU's cache.
``run_ensemble`` folds the blocks into a running maximum of
|delta_n| / lambda_n; ``martingale_check`` checks the summation identity on
every row.  Randomness is counter-based, so the blocks draw the same
variates as one full draw, and an ensemble whose rungs are shared out among
processes (``ioutil.map_rungs``) produces the same records in the same
order as one run inline.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .convergence import check_ladder
from .errors import IdentityViolationError, InvalidSpecError, RecurrenceOverflowError
from .ioutil import map_rungs, worker_count, write_csv
from .mobius import NORMALIZATION_FLOOR
from .recurrences import _OVERFLOW_LIMIT, _blocks, _check_overflow, _check_steps
from .schedules import RandomSchedule, UniformSymmetric

MARTINGALE_GATE = 1e-8  # largest martingale identity residual martingale_check accepts
TRIAL_CSV_HEADER = "N,delta,seed,trial,qN_re,qN_im,qN1_re,qN1_im,coeff_err"
SUMMARY_CSV_HEADER = "N,delta,trials,median_qN,q90_qN,exceed_count,azuma_bound"
_BLOCK = 64  # steps per block of the pass (see the module docstring)


@dataclass(frozen=True)
class TrialRecord:
    """Checkpoint values q_N, q_{N+1} and coeff_err for one (seed, trial) at
    one N: a pure function of (delta, dist, seed, trial, N)."""

    N: int
    delta: float
    seed: int
    trial: int
    q_N: complex
    q_N1: complex
    coeff_err: float


@dataclass(frozen=True)
class EnsembleSummary:
    N: int
    delta: float
    trials: int
    median_qN: float
    q90_qN: float
    exceed_count: int
    azuma_bound: float

    def __post_init__(self):
        if not 0 <= self.exceed_count <= self.trials:
            raise ValueError(
                f"exceed_count {self.exceed_count} outside 0..trials={self.trials}")


class EnsembleResult(NamedTuple):
    summaries: list
    records: list
    failures: list


class MartingaleCheck(NamedTuple):
    max_identity_residual: float
    mean_increment_abs: float
    increment_stderr: float


def azuma_tail_bound(lam: float, n: int, N: int, delta: float, M: float) -> float:
    """Sub-Gaussian tail exp(-lam^2 N^(2(1+delta)) / (2 M^2 n))."""
    if lam <= 0 or n <= 0 or N <= 0 or delta <= 0 or M <= 0:
        raise ValueError("all arguments must be positive")
    exponent = lam * lam * N ** (2.0 * (1.0 + delta)) / (2.0 * M * M * n)
    return math.exp(-exponent)


def quantile_nearest_rank(values, p: float) -> float:
    """Nearest-rank quantile: the ceil(p*n)-th smallest value."""
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        raise ValueError("quantile of empty sample")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    idx = max(1, math.ceil(p * v.size)) - 1
    return float(v[idx])


def proof_lambda(n, N: int, delta: float):
    """The proof's threshold lambda_n = sqrt(2n) * N^(-(3/2+delta/2)), which
    makes the per-n tail exponent N^(delta-1)/M^2 independent of n."""
    return np.sqrt(2.0 * np.asarray(n, dtype=float)) * N ** -(1.5 + delta / 2.0)


def union_bound(N: int, delta: float, M: float) -> float:
    """Sum of the Azuma terms at the proof's lambda_n over n = 1..N+1, all equal:
    (N+1) exp(-N^(delta-1)/M^2), computed from the term at n = N+1."""
    lam = float(proof_lambda(N + 1, N, delta))
    return (N + 1) * azuma_tail_bound(lam, N + 1, N, delta, M)


def _step_blocks(spec: RandomSchedule, N: int, trials: int, seen: dict | None = None):
    """Yield (k0, rows, d, partial) per block of steps k = k0..k0+nb-1.

    Row j of ``rows`` (nb+2 of them) holds q_{k0-1+j} of every trial, then
    r_{k0-1+j}; d[j] = 4 sin^2(pi/(2N)) - eps_k^2 = (2 - eps_k^2) - 2 cos(pi/N)
    and partial[j] = delta_{k+1} at k = k0+j.  ``rows``, ``d`` and
    ``partial`` are views of buffers that the next block overwrites.

    A dict ``seen`` gets what the scalar path checks: ``e_max``, each trial's
    largest eps_k^2 over steps 1..N+1, and ``failed``, the
    ``run_recurrences`` message of each trial whose q_k or r_k passes 1e100.
    As in the plain kernel, a block's rows are scanned only if its start
    passes 1e100 / (2 g^nb): with rho_k = 1, max(|x_k|, |d_k|) grows by at
    most g = 2 + eps_k^2 a step.
    """
    if N < 4:
        raise InvalidSpecError(f"N must be >= 4, got {N}")
    theta = math.pi / N
    gap = 4.0 * math.sin(theta / 2.0) ** 2  # 2 - 2 cos(theta), not rounded at ulp(2)
    t_idx = np.arange(trials, dtype=np.uint64)
    k_idx = np.arange(N + 2, dtype=np.uint64)[:, None]
    phases = np.exp(1j * theta * np.arange(N + 1))
    cos_k, sin_k = phases.real[:, None].copy(), phases.imag[:, None].copy()
    x = np.empty((_BLOCK + 2, 2 * trials))
    x[0, :trials] = 0.0
    x[1, :trials] = 1.0
    x[:2, trials:] = 1.0
    # the carried increments x_k - x_{k-1}, q then r: 1 and 0 at k = 1
    inc = np.repeat([1.0, 0.0], trials)
    es_x = np.empty(2 * trials)
    # the block's buffers: eps_k^2 laid out q then r like the rows, d_k,
    # d_k q_k and the martingale terms, summed in place into the delta_n
    es = np.empty((_BLOCK, 2 * trials))
    d = np.empty((_BLOCK, trials))
    dq = np.empty((_BLOCK, trials))
    terms = np.empty((_BLOCK, trials), dtype=complex)
    es_top = np.empty(trials)
    rows, es_rows, term_rows = list(x), list(es), list(terms)
    # the running sum carried between blocks; the k = 0 term of delta_n is
    # d_0 q_0 = 0, so it starts at 0
    carry = np.zeros(trials, dtype=complex)
    # eps_{N+1}, which no step reads, starts each trial's largest eps_k^2
    e_max = spec.eps(N, t_idx, k_idx[N + 1])
    failed: dict[int, str] = {}
    if seen is not None:
        seen.update(e_max=e_max, failed=failed)
    with np.errstate(over="ignore"):
        e_max *= e_max
    nb = 0
    for k0, k1 in _blocks(N, size=_BLOCK):
        if nb:
            x[:2] = x[nb:nb + 2]
        nb = k1 - k0
        eps = spec.eps(N, t_idx[None, :], k_idx[k0:k1])
        es_q = es[:nb, :trials]
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(eps, eps, es_q)
            es[:nb, trials:] = es_q
            np.subtract(gap, es_q, d[:nb])
            np.max(es_q, axis=0, out=es_top)
            np.maximum(e_max, es_top, out=e_max)
            start = max(np.abs(x[1], es_x).max(), np.abs(inc, es_x).max())  # es_x as scratch
            # three row ops advance both recurrences of every trial (rho_k = 1)
            for e, xk, xn in zip(es_rows[:nb], rows[1:nb + 1], rows[2:nb + 2]):
                np.multiply(e, xk, es_x)
                np.subtract(inc, es_x, inc)
                np.add(xk, inc, xn)
            if not start <= _OVERFLOW_LIMIT / 2 * (2.0 + es_top.max()) ** -nb:
                _name_overflows(x[2:nb + 2], k0 + 1, failed)
            # d_k q_k e^{i k theta}, the real d_k q_k times each part of the phase
            np.multiply(d[:nb], x[1:nb + 1, :trials], dq[:nb])
            np.multiply(dq[:nb], cos_k[k0:k1], terms[:nb].real)
            np.multiply(dq[:nb], sin_k[k0:k1], terms[:nb].imag)
            # their running sums, row by row: at 200 trials numpy's cumsum
            # along the rows is slower than these calls
            np.add(term_rows[0], carry, term_rows[0])
            for prev, row in zip(term_rows[:nb - 1], term_rows[1:nb]):
                np.add(prev, row, row)
        carry[:] = term_rows[nb - 1]
        yield k0, x[:nb + 2], d[:nb], terms[:nb]


def _name_overflows(rows: np.ndarray, first: int, failed: dict) -> None:
    """Add to ``failed`` each trial not yet in it with an entry of ``rows``
    (q_first.. of every trial, then r_first..) past 1e100 or non-finite,
    with ``run_recurrences``' message, which names its first such entry."""
    trials = rows.shape[1] // 2
    bad = ~(np.abs(rows) <= _OVERFLOW_LIMIT).all(axis=0)
    for t in np.flatnonzero(bad[:trials] | bad[trials:]).tolist():
        if t not in failed:
            try:
                _check_overflow(rows[:, t], rows[:, trials + t], first)
            except RecurrenceOverflowError as exc:
                failed[t] = str(exc)


def _refuse(N: int, e_max: np.ndarray) -> None:
    """Raise the InvalidSpecError that ``materialize`` raises at N for the
    lowest trial it refuses, if any, from each trial's largest eps_k^2 over
    steps 1..N+1, by the rule of ``recurrences._check_steps``.  rho_k = 1 at
    every step, so one step of a trial, its largest eps_k^2, stands for all
    of them."""
    try:
        _check_steps(np.ones((e_max.size, 1)), e_max[:, None], cmath.exp(2j * math.pi / N))
    except InvalidSpecError as exc:
        raise InvalidSpecError(f"N={N}: {exc}") from None


def _run_trials_at(N: int, delta: float, dist: UniformSymmetric, trials: int, seed: int):
    seen: dict = {}
    blocks = _step_blocks(RandomSchedule(delta, dist, seed), N, trials, seen)
    lam = proof_lambda(np.arange(1, N + 2), N, delta)[:, None]
    # running maximum of |delta_n| / lambda_n over n = 1..N+1; delta_1 = 0
    ratio_max = np.zeros(trials)
    ratio = np.empty((_BLOCK, trials))
    block_max = np.empty(trials)
    with np.errstate(over="ignore", invalid="ignore"):
        for k0, rows, _, partial in blocks:
            nb = len(partial)
            r = ratio[:nb]
            np.abs(partial, r)
            np.divide(r, lam[k0:k0 + nb], r)
            np.max(r, axis=0, out=block_max)
            np.maximum(ratio_max, block_max, out=ratio_max)
        q_N, q_N1 = rows[-2:, :trials]
        r_N, r_N1 = rows[-2:, trials:]
        a_coef = q_N1 - q_N
        b_coef = r_N - r_N1
        c_coef = -q_N
        d_coef = r_N
        ce = np.abs(a_coef / d_coef - 1.0) + np.abs(b_coef / d_coef) + np.abs(c_coef / d_coef)
    exceeded = ratio_max >= 1.0

    ok = (np.isfinite(q_N) & np.isfinite(q_N1) & np.isfinite(ce)
          & (np.abs(d_coef) > NORMALIZATION_FLOOR))
    return {"q_N": q_N, "q_N1": q_N1, "coeff_err": ce, "exceeded": exceeded, "ok": ok, **seen}


def run_ensemble(delta: float, dist: UniformSymmetric, Ns: list[int], trials: int, seed: int, *,
                 max_workers: int | None = None) -> EnsembleResult:
    """Seeded ensemble over an N ladder.

    Returns summaries (one per N), all per-trial records, and a list of
    (N, trial, message) failures; failed trials are excluded from the
    quantiles and counts.  It refuses what the scalar path refuses: a rung
    where ``materialize`` refuses some trial raises its InvalidSpecError for
    the lowest such trial, and a trial whose q_k or r_k passes 1e100 fails
    with ``run_recurrences``' message.  A rung where every trial fails has
    no quantiles and raises RecurrenceOverflowError naming its N.  The
    exceedance event for a trial is max_n |delta_n| / lambda_n >= 1, with
    the proof's lambda_n (``proof_lambda``): the event that the summary's
    ``azuma_bound``, the union bound at the same lambda_n, controls.  delta and dist follow the rule
    of :class:`RandomSchedule`, and Ns that of ``check_ladder``.  The rungs
    run on ``max_workers`` processes, the caller included, by default one
    per CPU (``ioutil.worker_count``).
    """
    check_ladder(Ns)
    if trials < 30:
        raise ValueError(f"trials: need at least 30 for quantiles, got {trials}")
    RandomSchedule(delta, dist, seed)  # refuses a bad delta or dist before any rung runs

    rung = functools.partial(_run_trials_at, delta=delta, dist=dist, trials=trials, seed=seed)
    per_n = dict(zip(Ns, map_rungs(rung, Ns, worker_count(max_workers))))

    summaries: list[EnsembleSummary] = []
    records: list[TrialRecord] = []
    failures: list[tuple[int, int, str]] = []
    for n in Ns:
        data = per_n[n]
        _refuse(n, data["e_max"])
        failed = data["failed"]
        ok = data["ok"]
        ok[list(failed)] = False
        for t in range(trials):
            if not ok[t]:
                failures.append((n, t, failed.get(t, "non-finite trial output")))
                continue
            records.append(TrialRecord(
                N=n, delta=delta, seed=seed, trial=t,
                q_N=complex(data["q_N"][t]), q_N1=complex(data["q_N1"][t]),
                coeff_err=float(data["coeff_err"][t]),
            ))
        good_q = np.abs(data["q_N"][ok])
        n_ok = int(np.count_nonzero(ok))
        if not n_ok:
            # the rung's failures are the last ``trials`` entries, from trial 0 on
            raise RecurrenceOverflowError(
                f"all {trials} trials failed at N={n} (trial 0: {failures[-trials][2]})")
        summaries.append(EnsembleSummary(
            N=n, delta=delta, trials=n_ok,
            median_qN=quantile_nearest_rank(good_q, 0.5),
            q90_qN=quantile_nearest_rank(good_q, 0.9),
            exceed_count=int(np.count_nonzero(data["exceeded"] & ok)),
            azuma_bound=union_bound(n, delta, dist.m),
        ))
    return EnsembleResult(summaries, records, failures)


def martingale_check(delta: float, dist: UniformSymmetric, N: int, trials: int,
                     seed: int) -> MartingaleCheck:
    """Verify the summation identity on every prefix of every trial.

    For n = 1..N+1 the partial sum delta_n = sum_{k<n} d_k q_k e^{i k theta}
    must satisfy sin(theta) (q_n - U_n) = -Im(delta_n e^{-i n theta}), with
    U_n = sin(n theta)/sin(theta) the second-kind Chebyshev value, to
    ``MARTINGALE_GATE`` (1e-8), else IdentityViolationError; the returned
    maximum residual is the worst value observed.  The mean increment is
    taken at n = N//2 across trials, with its standard error for a
    mean-zero sanity check.

    The q rows, d_k and running sums delta_n come from the same blocked
    pass as ``run_ensemble``, so the check sees the recurrence the ensembles
    run, and checks a whole block of prefixes of every trial at once.  Like
    ``run_ensemble`` it refuses what ``materialize`` refuses, with its
    InvalidSpecError for the lowest refused trial, even where the identity
    fails first.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    seen: dict = {}
    blocks = _step_blocks(RandomSchedule(delta, dist, seed), N, trials, seen)
    theta = math.pi / N
    sin_t = math.sin(theta)
    # U_n at n = 0..N+1; n = 1 holds exactly (q_1 = U_1 = 1, delta_1 = 0)
    u = (np.array([math.sin(n * theta) for n in range(N + 2)]) / sin_t)[:, None]
    turn = np.exp(-1j * theta * np.arange(N + 2))[:, None]
    k_mid = max(2, N // 2) - 1  # delta_n - delta_{n-1} at n = N//2
    max_resid = 0.0
    violation = None
    # the residuals and delta_n e^{-i n theta} of a block, in buffers held for the pass
    resid_buf = np.empty((_BLOCK, trials))
    turned_buf = np.empty((_BLOCK, trials), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for k0, rows, d, partial in blocks:
            nb = len(d)
            resid, turned = resid_buf[:nb], turned_buf[:nb]
            np.subtract(rows[2:, :trials], u[k0 + 1:k0 + 1 + nb], resid)
            np.multiply(sin_t, resid, resid)
            np.multiply(partial, turn[k0 + 1:k0 + 1 + nb], turned)
            np.add(resid, turned.imag, resid)
            np.abs(resid, resid)
            block_max = float(resid.max())
            if not block_max <= MARTINGALE_GATE:  # a NaN residual fails too
                j, t = np.argwhere(~(resid <= MARTINGALE_GATE))[0]
                violation = IdentityViolationError(
                    f"martingale identity residual {resid[j, t]:.3e} at n={k0 + 1 + j} "
                    f"exceeds {MARTINGALE_GATE:g}")
                break
            max_resid = max(max_resid, block_max)
            if 0 <= k_mid - k0 < len(d):
                j = k_mid - k0
                increments = d[j] * rows[j + 1, :trials] * cmath.exp(1j * k_mid * theta)
        # the refusal reads every step's eps_k^2, and wins over a violation,
        # as materialize's does on the scalar path
        for _ in blocks:
            pass
    _refuse(N, seen["e_max"])
    if violation is not None:
        raise violation
    mean_inc = complex(np.mean(increments))
    stderr = float(np.std(increments) / math.sqrt(trials))
    return MartingaleCheck(max_resid, abs(mean_inc), stderr)


def write_trial_csv(records: list[TrialRecord], path: str) -> None:
    rows = ((t.N, t.delta, t.seed, t.trial, t.q_N.real, t.q_N.imag, t.q_N1.real, t.q_N1.imag,
             t.coeff_err) for t in records)
    write_csv(path, TRIAL_CSV_HEADER, "dgddggggg", rows)


def write_summary_csv(summaries: list[EnsembleSummary], path: str) -> None:
    rows = ((s.N, s.delta, s.trials, s.median_qN, s.q90_qN, s.exceed_count, s.azuma_bound)
            for s in summaries)
    write_csv(path, SUMMARY_CSV_HEADER, "dgdggdg", rows)
