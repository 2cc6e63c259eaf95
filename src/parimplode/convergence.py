"""Deterministic N-sweeps: distance-to-identity measurement and decay fits.

``run_point`` is the single-N workhorse: it materializes a schedule, runs
the recurrences, and measures every error field, cross-checking the result
against direct matrix composition for small N.  ``run_sweep`` fans points
out over a thread pool and reassembles them in input order, and
``fit_decay`` turns a sweep into an empirical decay exponent.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .errors import NonPositiveValueError, OracleMismatchError, SweepError
from .ioutil import fmt17, worker_count, write_csv
from .mobius import EvalRegion, compose_chain, identity_distance, projective_coeff_error, projective_distance
from .recurrences import coefficients_from_qr, run_recurrences, wronskian_residual
from .schedules import ScheduleSpec, materialize

RATE_CSV_HEADER = "N,coeff_err,sup_err,qN_abs,qN1_err,rN_err,rN1_err,wronskian_resid"

_ORACLE_TOL = 1e-8
_WRONSKIAN_TOL = 1e-9
# Largest N that run_point cross-checks against the direct matrix product.
# It stays at 512: a one-step eps shift on TheoremB(4) at N = 12800 moves
# the chain deviation by only 1.8e-11, below the oracle's own roundoff, so
# a higher limit would cost time and still miss that class of error.
DEFAULT_ORACLE_LIMIT = 512
_REGION = EvalRegion()  # sup_err is measured over this disk


@dataclass(frozen=True)
class RatePoint:
    """All per-N error measurements for one schedule.

    q_N1_err is |q_{N+1} - 1|, r_N_err is |r_N - 1|, r_N1_err is
    |r_{N+1} - 1|; coeff_err and sup_err are the projective coefficient
    distance and the sup distance to the identity over ``EvalRegion()``.
    """

    N: int
    coeff_err: float
    sup_err: float
    q_N_abs: float
    q_N1_err: float
    r_N_err: float
    r_N1_err: float
    wronskian_resid: float

    def __post_init__(self):
        for f in fields(self):
            val = getattr(self, f.name)
            if not math.isfinite(val) or val < 0:
                raise ValueError(f"{f.name} must be finite and non-negative, got {val}")


@dataclass(frozen=True)
class DecayFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 3:
            raise ValueError(f"a fit needs at least 3 points, got {self.n_points}")
        if not 0.0 <= self.r_squared <= 1.0:
            raise ValueError(f"r_squared must be in [0, 1], got {self.r_squared}")


def run_point(spec: ScheduleSpec, N: int, *, extended: bool = False,
              oracle_limit: int = DEFAULT_ORACLE_LIMIT) -> RatePoint:
    """Measure one composition length.

    The Wronskian conservation law is enforced at 1e-9 relative and, for
    N <= oracle_limit, the recurrence coefficients are compared against a
    direct product of the step matrices; either failing, or reading NaN,
    raises OracleMismatchError (a hard failure, never a data point).
    ``oracle_limit`` defaults to 512; a higher limit costs N matrix products
    per point and still misses a one-step eps shift (see DEFAULT_ORACLE_LIMIT).
    """
    seqs = materialize(spec, N)
    triple = run_recurrences(seqs, extended=extended)
    coeffs = coefficients_from_qr(triple, N)

    wr = wronskian_residual(triple, N)
    # `not x <= tol` rather than `x > tol`, so that NaN fails the gates
    if not wr <= _WRONSKIAN_TOL:
        raise OracleMismatchError(f"Wronskian residual {wr:.3e} at N={N} exceeds {_WRONSKIAN_TOL}")
    if N <= oracle_limit:
        chain = compose_chain(seqs.step_maps())
        dev = projective_distance(coeffs, chain)
        if not dev <= _ORACLE_TOL:
            raise OracleMismatchError(
                f"recurrence vs chain deviation {dev:.3e} at N={N} exceeds {_ORACLE_TOL}")

    sup, _skipped = identity_distance(coeffs, _REGION)
    q, r = triple.q, triple.r
    return RatePoint(
        N=N,
        coeff_err=projective_coeff_error(coeffs),
        sup_err=sup,
        q_N_abs=abs(q[N]),
        q_N1_err=abs(q[N + 1] - 1.0),
        r_N_err=abs(r[N] - 1.0),
        r_N1_err=abs(r[N + 1] - 1.0),
        wronskian_resid=wr,
    )


def check_ladder(Ns: list[int]) -> None:
    """Raise ValueError unless Ns is non-empty, strictly increasing and every N >= 4.

    The rule of every N ladder swept rung by rung (``run_sweep``, and the
    sweep, counterexample and skew commands): a band read at the top rung
    needs the top rung last.
    """
    if not Ns:
        raise ValueError("ladder must be non-empty")
    if any(n < 4 for n in Ns) or any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ValueError(f"ladder must be strictly increasing with every N >= 4, got {Ns}")


def run_sweep(spec: ScheduleSpec, Ns: list[int], *, extended: bool = False,
              oracle_limit: int = DEFAULT_ORACLE_LIMIT,
              max_workers: int | None = None) -> list[RatePoint]:
    """run_point over a ladder, output in input order.

    All points are attempted; failures are aggregated into one SweepError
    carrying (N, exception) pairs.

    The points run one after another in the calling thread unless
    ``max_workers`` or PARIMPLODE_THREADS asks for more than one worker.
    run_point is Python bytecode that holds the GIL, so a pool runs no
    faster, and on a machine whose CPUs are shared its GIL hand-offs cost
    up to half again the serial time.
    """
    check_ladder(Ns)

    def attempt(n: int) -> RatePoint | Exception:
        try:
            return run_point(spec, n, extended=extended, oracle_limit=oracle_limit)
        except Exception as exc:
            return exc

    workers = worker_count(max_workers, default=1)
    if workers == 1:
        outcomes = [attempt(n) for n in Ns]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(attempt, Ns))
    failures = [(n, out) for n, out in zip(Ns, outcomes) if isinstance(out, Exception)]
    if failures:
        raise SweepError(failures)
    return outcomes


def fit_decay(points: list[RatePoint], field: str) -> DecayFit:
    """OLS fit of log(field) against log(N); slope is the decay exponent."""
    names = {f.name for f in fields(RatePoint)}
    if field not in names:
        raise ValueError(f"unknown RatePoint field {field!r}")
    return fit_loglog([p.N for p in points], [getattr(p, field) for p in points])


def fit_loglog(ns, values) -> DecayFit:
    """Log-log least squares on raw (N, value) pairs.

    Raises NonPositiveValueError if any value is <= 0: the fit is undefined
    there and the caller should report the point as below the
    floating-point floor instead of fitting through it.
    """
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    if ns.size != values.size:
        raise ValueError("ns and values must have equal length")
    if ns.size < 3:
        raise ValueError(f"a fit needs at least 3 points, got {ns.size}")
    if np.any(values <= 0.0):
        raise NonPositiveValueError(
            "cannot fit a decay exponent through non-positive values; "
            "report them as below the floating-point floor")
    lx = np.log(ns)
    ly = np.log(values)
    slope, intercept = np.polyfit(lx, ly, 1)
    if np.allclose(ly, ly[0]):
        r_sq = 1.0
    else:
        r = np.corrcoef(lx, ly)[0, 1]
        r_sq = float(min(1.0, max(0.0, r * r)))
    return DecayFit(slope=float(slope), intercept=float(intercept),
                    r_squared=r_sq, n_points=int(ns.size))


def write_rate_csv(points: list[RatePoint], path: str) -> None:
    rows = (
        (str(p.N), fmt17(p.coeff_err), fmt17(p.sup_err), fmt17(p.q_N_abs),
         fmt17(p.q_N1_err), fmt17(p.r_N_err), fmt17(p.r_N1_err), fmt17(p.wronskian_resid))
        for p in points
    )
    write_csv(path, RATE_CSV_HEADER, rows)
