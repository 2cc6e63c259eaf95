"""Monte Carlo lab for additive random schedules eps_k = pi/N + eta_k/N^(1+delta).

With rho == 1 the recurrence coefficient is 2 - eps_k^2 and everything is
real; ensembles are vectorized across trials and still bit-identical to the
scalar single-trial path (both take eps_k from ``RandomSchedule.eps``), because
complex arithmetic on exactly-real values does the same operations on the
real parts.

Every trial of the lab runs in one step-major pass, ``_step_blocks``, over
steps 1..N in blocks of ``recurrences._BLOCK`` steps.  A block draws its own
variates, advances q and r of every trial (a buffer row holds one step of
every trial, q then r, so a step is one multiply and one subtract) and
extends the running martingale sums delta_n.  Only the last two rows carry
over, so memory is O(trials x block).  ``run_ensemble`` folds the blocks
into a running maximum of |delta_n| / lambda_n; ``martingale_check`` checks
the summation identity on every row.  Randomness is counter-based, so the
blocks draw the same variates as one full draw, and concurrent and
sequential runs produce the same records in the same order.
"""
from __future__ import annotations

import cmath
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import IdentityViolationError, InvalidSpecError
from .ioutil import fmt17, worker_count, write_csv
from .recurrences import _BLOCK, ChebyshevPoint, _blocks, chebyshev_U
from .schedules import RandomDist, RandomSchedule

TRIAL_CSV_HEADER = "N,delta,seed,trial,qN_re,qN_im,qN1_re,qN1_im,coeff_err"
SUMMARY_CSV_HEADER = "N,delta,trials,median_qN,q90_qN,exceed_count,azuma_bound"


@dataclass(frozen=True)
class TrialRecord:
    """Checkpoint values for one (seed, trial) at one N.

    q_Nm1 is q_{N-1}.  The record is a pure function of
    (delta, dist, seed, trial, N).
    """

    N: int
    delta: float
    seed: int
    trial: int
    q_N: complex
    q_N1: complex
    q_Nm1: complex
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


@dataclass(frozen=True)
class PropLambda:
    """The proof's threshold choice lambda_n = sqrt(2n) * N^(-(3/2+delta/2)),
    which makes the per-n tail exponent independent of n."""

    def lambda_at(self, n, N: int, delta: float):
        return np.sqrt(2.0 * np.asarray(n, dtype=float)) * N ** -(1.5 + delta / 2.0)


@dataclass(frozen=True)
class FixedLambda:
    """Constant threshold; the tail bound then collapses to 0 for large N."""

    value: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value > 0):
            raise ValueError(f"lambda must be positive, got {self.value}")

    def lambda_at(self, n, N: int, delta: float):
        return np.full_like(np.asarray(n, dtype=float), self.value)


LambdaRule = Union[PropLambda, FixedLambda]


class EnsembleResult(NamedTuple):
    summaries: list
    records: list
    failures: list


class MartingaleCheck(NamedTuple):
    max_identity_residual: float
    mean_increment_abs: float
    increment_stderr: float


class ExceedanceRow(NamedTuple):
    N: int
    empirical: float
    bound: float
    vacuous: bool


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


def union_bound(N: int, delta: float, M: float, lambda_rule: LambdaRule) -> float:
    """(N+1) times the worst per-n Azuma term (n = N+1, where it is largest)."""
    lam = float(lambda_rule.lambda_at(np.array(N + 1), N, delta))
    return (N + 1) * azuma_tail_bound(lam, N + 1, N, delta, M)


def _step_blocks(spec: RandomSchedule, N: int, trials: int):
    """Yield (k0, rows, d, partial) per block of steps k = k0..k0+nb-1.

    Row j of ``rows`` (nb+2 of them) holds q_{k0-1+j} of every trial, then
    r_{k0-1+j}; d[j] = (2 - eps_k^2) - 2 cos(pi/N) and partial[j] = delta_{k+1}
    at k = k0+j.  ``rows`` is a view that the next block overwrites.
    """
    if N < 4:
        raise InvalidSpecError(f"N must be >= 4, got {N}")
    theta = math.pi / N
    x_cheb = 2.0 * math.cos(theta)
    t_idx = np.arange(trials, dtype=np.uint64)
    phases = np.exp(1j * theta * np.arange(N + 1))
    x = np.empty((_BLOCK + 2, 2 * trials))
    c = np.empty((_BLOCK, 2 * trials))
    x[0, :trials] = 0.0
    x[1, :trials] = 1.0
    x[:2, trials:] = 1.0
    rows, c_rows = list(x), list(c)
    # the k = 0 term of delta_n is d_0 q_0 = 0, so the running sum starts at 0
    partial = np.zeros(trials, dtype=complex)
    nb = 0
    for k0, k1 in _blocks(N):
        if nb:
            x[:2] = x[nb:nb + 2]
        nb = k1 - k0
        eps = spec.eps(N, t_idx[None, :], np.arange(k0, k1, dtype=np.uint64)[:, None])
        coeff = 2.0 - eps * eps
        d = coeff - x_cheb
        c[:nb, :trials] = coeff
        c[:nb, trials:] = coeff
        with np.errstate(over="ignore", invalid="ignore"):
            # one multiply and one subtract advance both recurrences of every trial
            for j in range(nb):
                np.multiply(c_rows[j], rows[j + 1], out=rows[j + 2])
                np.subtract(rows[j + 2], rows[j], out=rows[j + 2])
            terms = d * x[1:nb + 1, :trials] * phases[k0:k1, None]
            terms[0] += partial
            np.cumsum(terms, axis=0, out=terms)
        partial = terms[-1].copy()
        yield k0, x[:nb + 2], d, terms


def _run_trials_at(N: int, delta: float, dist: RandomDist, trials: int, seed: int,
                   lambda_rule: LambdaRule, threshold: float):
    blocks = _step_blocks(RandomSchedule(delta, dist, seed), N, trials)
    lam = lambda_rule.lambda_at(np.arange(1, N + 2), N, delta)
    # running maximum of |delta_n| / lambda_n over n = 1..N+1; delta_1 = 0
    ratio_max = np.zeros(trials)
    with np.errstate(over="ignore", invalid="ignore"):
        for k0, rows, _, partial in blocks:
            ratio_max = np.maximum(
                ratio_max, np.max(np.abs(partial) / lam[k0:k0 + len(partial), None], axis=0))
        q_Nm1, q_N, q_N1 = rows[-3:, :trials]
        r_N, r_N1 = rows[-2:, trials:]
        a_coef = q_N1 - q_N
        b_coef = r_N - r_N1
        c_coef = -q_N
        d_coef = r_N
        ce = np.abs(a_coef / d_coef - 1.0) + np.abs(b_coef / d_coef) + np.abs(c_coef / d_coef)
    exceeded = ratio_max >= threshold

    ok = (
        np.isfinite(q_Nm1) & np.isfinite(q_N) & np.isfinite(q_N1)
        & np.isfinite(ce) & (np.abs(d_coef) > 1e-12)
    )
    return {
        "q_Nm1": q_Nm1, "q_N": q_N, "q_N1": q_N1,
        "coeff_err": ce, "exceeded": exceeded, "ok": ok,
    }


def run_ensemble(delta: float, dist: RandomDist, Ns: list[int], trials: int, seed: int, *,
                 lambda_rule: LambdaRule = PropLambda(),
                 exceed_threshold: float = 1.0,
                 max_workers: int | None = None) -> EnsembleResult:
    """Seeded ensemble over an N ladder.

    Returns summaries (one per N), all per-trial records, and a list of
    (N, trial, message) failures; failed trials are excluded from the
    quantiles and counts but never abort the ensemble.  The exceedance
    event for a trial is max_n |delta_n| / lambda_n >= exceed_threshold,
    the event the tail bound actually controls.  delta and dist follow
    the rule of :class:`RandomSchedule`, and every N must be >= 4.
    """
    if trials < 30:
        raise ValueError(f"need at least 30 trials for quantiles, got {trials}")
    if not (math.isfinite(exceed_threshold) and exceed_threshold > 0):
        raise ValueError(f"threshold must be a positive real, got {exceed_threshold}")

    with ThreadPoolExecutor(max_workers=worker_count(max_workers)) as pool:
        per_n = dict(zip(Ns, pool.map(
            lambda n: _run_trials_at(n, delta, dist, trials, seed, lambda_rule, exceed_threshold),
            Ns)))

    summaries: list[EnsembleSummary] = []
    records: list[TrialRecord] = []
    failures: list[tuple[int, int, str]] = []
    m_bound = dist.magnitude_bound
    for n in Ns:
        data = per_n[n]
        ok = data["ok"]
        for t in range(trials):
            if not ok[t]:
                failures.append((n, t, "non-finite trial output"))
                continue
            records.append(TrialRecord(
                N=n, delta=delta, seed=seed, trial=t,
                q_N=complex(data["q_N"][t]), q_N1=complex(data["q_N1"][t]),
                q_Nm1=complex(data["q_Nm1"][t]),
                coeff_err=float(data["coeff_err"][t]),
            ))
        good_q = np.abs(data["q_N"][ok])
        n_ok = int(np.count_nonzero(ok))
        summaries.append(EnsembleSummary(
            N=n, delta=delta, trials=n_ok,
            median_qN=quantile_nearest_rank(good_q, 0.5),
            q90_qN=quantile_nearest_rank(good_q, 0.9),
            exceed_count=int(np.count_nonzero(data["exceeded"] & ok)),
            azuma_bound=union_bound(n, delta, m_bound, lambda_rule),
        ))
    return EnsembleResult(summaries, records, failures)


def martingale_check(delta: float, dist: RandomDist, N: int, trials: int,
                     seed: int) -> MartingaleCheck:
    """Verify the summation identity on every prefix of every trial.

    For n = 1..N+1 the partial sum delta_n = sum_{k<n} d_k q_k e^{i k theta}
    must satisfy sin(theta) (q_n - U_n) = -Im(delta_n e^{-i n theta}) to
    1e-8, else IdentityViolationError; the returned maximum residual is the
    worst value observed.  The mean increment is taken at n = N//2 across
    trials, with its standard error for a mean-zero sanity check.

    The q rows, d_k and running sums delta_n come from the same blocked
    pass as ``run_ensemble``, so the check sees the recurrence the ensembles
    run, and checks a whole block of prefixes of every trial at once.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    blocks = _step_blocks(RandomSchedule(delta, dist, seed), N, trials)
    theta = math.pi / N
    sin_t = math.sin(theta)
    point = ChebyshevPoint.from_theta(theta)
    # indexed by n = 0..N+1; n = 1 holds exactly (q_1 = U_1 = 1, delta_1 = 0)
    u = np.array([chebyshev_U(n, point) for n in range(N + 2)])
    turn = np.exp(-1j * theta * np.arange(N + 2))
    k_mid = max(2, N // 2) - 1  # delta_n - delta_{n-1} at n = N//2
    max_resid = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k0, rows, d, partial in blocks:
            n = slice(k0 + 1, k0 + 1 + len(d))
            resid = np.abs(sin_t * (rows[2:, :trials] - u[n, None])
                           + (partial * turn[n, None]).imag)
            bad = np.argwhere(~(resid <= 1e-8))  # a NaN residual fails too
            if bad.size:
                j, t = bad[0]
                raise IdentityViolationError(
                    f"martingale identity residual {resid[j, t]:.3e} at n={k0 + 1 + j} "
                    "exceeds 1e-8")
            max_resid = max(max_resid, float(resid.max()))
            if 0 <= k_mid - k0 < len(d):
                j = k_mid - k0
                increments = d[j] * rows[j + 1, :trials] * cmath.exp(1j * k_mid * theta)
    mean_inc = complex(np.mean(increments))
    stderr = float(np.std(increments) / math.sqrt(trials))
    return MartingaleCheck(max_resid, abs(mean_inc), stderr)


def exceedance_vs_bound(summaries: list[EnsembleSummary], lambda_rule: LambdaRule,
                        M: float = 1.0) -> list[ExceedanceRow]:
    """Empirical exceedance fraction next to the union-bounded prediction.

    Rows with bound >= 1 carry vacuous=True: the inequality holds trivially
    and says nothing about the data.
    """
    rows = []
    for s in summaries:
        bound = union_bound(s.N, s.delta, M, lambda_rule)
        empirical = s.exceed_count / s.trials if s.trials else 0.0
        rows.append(ExceedanceRow(s.N, empirical, bound, bound >= 1.0))
    return rows


def write_trial_csv(records: list[TrialRecord], path: str) -> None:
    rows = (
        (str(t.N), fmt17(t.delta), str(t.seed), str(t.trial),
         fmt17(t.q_N.real), fmt17(t.q_N.imag),
         fmt17(t.q_N1.real), fmt17(t.q_N1.imag), fmt17(t.coeff_err))
        for t in records
    )
    write_csv(path, TRIAL_CSV_HEADER, rows)


def write_summary_csv(summaries: list[EnsembleSummary], path: str) -> None:
    rows = (
        (str(s.N), fmt17(s.delta), str(s.trials), fmt17(s.median_qN),
         fmt17(s.q90_qN), str(s.exceed_count), fmt17(s.azuma_bound))
        for s in summaries
    )
    write_csv(path, SUMMARY_CSV_HEADER, rows)
