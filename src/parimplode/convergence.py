"""Deterministic N-sweeps: distance-to-identity measurement and decay fits.

``run_point`` is the single-N workhorse: it materializes a schedule, runs
the recurrences, and measures every error field, cross-checking the result
against direct matrix composition at every N <= 512.  ``run_sweep`` runs the
points of a ladder, on worker processes for an exact ladder whose top rung
does not repeat, and returns them in input order, and ``fit_decay`` turns a
sweep into an empirical decay exponent.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidSpecError, NonPositiveValueError, OracleMismatchError, SweepError
from .ioutil import fmt17, map_rungs, requested_workers, worker_count, write_csv
from .mobius import EvalRegion, compose_chain, identity_distance, projective_coeff_error, projective_distance
from .recurrences import PerturbationSequences, _period, coefficients_from_qr, run_recurrences, wronskian_residual
from .schedules import ScheduleSpec, materialize

RATE_CSV_HEADER = "N,coeff_err,sup_err,qN_abs,qN1_err,rN_err,rN1_err,wronskian_resid"

ORACLE_GATE = 1e-9  # largest recurrence vs step-matrix deviation run_point and ``oracle`` accept
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
    distance and the sup distance to the identity over the disk
    |z| <= 0.25, read on the 3,096 in-disk points of a 64 x 64 grid.
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
              seqs: PerturbationSequences | None = None) -> RatePoint:
    """Measure one composition length.

    ``seqs``, if given, is ``materialize(spec, N)``, already built by the
    caller (``run_sweep`` passes its top rung's).

    ``coefficients_from_qr`` enforces the Wronskian conservation law at
    ``recurrences.WRONSKIAN_GATE`` (DegenerateMapError); the residual it
    passed fills the ``wronskian_resid`` field.  For every N <=
    DEFAULT_ORACLE_LIMIT (512) the recurrence coefficients are also compared
    against a direct product of the step matrices, and a deviation over
    ``ORACLE_GATE``, or NaN, raises OracleMismatchError.  Either failure is
    hard, never a data point.
    """
    if seqs is None:
        seqs = materialize(spec, N)
    triple = run_recurrences(seqs, extended=extended)
    coeffs = coefficients_from_qr(triple, N)
    if N <= DEFAULT_ORACLE_LIMIT:
        dev = projective_distance(coeffs, compose_chain(seqs.step_maps()))
        if not dev <= ORACLE_GATE:  # `not <=`, so that NaN fails the gate
            raise OracleMismatchError(
                f"recurrence vs chain deviation {dev:.3e} at N={N} exceeds {ORACLE_GATE:g}")

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
        wronskian_resid=wronskian_residual(triple, N),
    )


def check_ladder(Ns: list[int]) -> None:
    """Raise ValueError unless Ns is non-empty, strictly increasing and every N >= 4.

    The rule of every N ladder swept rung by rung (``run_sweep``,
    ``randomlab.run_ensemble`` and the commands built on them): a band read
    at the top rung needs the top rung last.
    """
    if not Ns:
        raise ValueError("ladder must be non-empty")
    if any(n < 4 for n in Ns) or any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ValueError(f"ladder must be strictly increasing with every N >= 4, got {Ns}")


def _attempt(spec: ScheduleSpec, extended: bool, top: PerturbationSequences | None,
             n: int) -> RatePoint | Exception:
    """run_point, with its exception returned rather than raised, unless the
    spec itself is inadmissible at n (InvalidSpecError).  ``top``, if given,
    holds the sequences of the rung ``top.N``."""
    try:
        seqs = top if top is not None and top.N == n else None
        return run_point(spec, n, extended=extended, seqs=seqs)
    except InvalidSpecError:
        raise
    except Exception as exc:
        return exc


def run_sweep(spec: ScheduleSpec, Ns: list[int], *, extended: bool = False,
              max_workers: int | None = None) -> list[RatePoint]:
    """run_point over a ladder, output in input order; the ladders of the
    sweep, counterexample and skew (``SkewExample``) commands all run here,
    so the oracle cross-checks each of their rungs at N <= DEFAULT_ORACLE_LIMIT.

    A spec that is inadmissible at some N raises the InvalidSpecError of the
    lowest such N, as it would for that N alone.  Otherwise all points are
    attempted, and their failures are aggregated into one SweepError carrying
    (N, exception) pairs.

    The points run through ``map_rungs`` on ``max_workers`` processes, the
    caller included, else on PARIMPLODE_THREADS.  Without either, the
    binary64 path runs inline, and so does an exact (``extended``) ladder
    whose top rung has a period (``recurrences._period``): the kernel raises
    it to its power in about a millisecond a rung, less than a fork costs.
    Any other exact ladder takes one process per CPU, which wins where the
    kernel steps through its loop (README gives the timings).  The top rung
    decides, as a schedule can repeat at a low rung alone (skew example 5 at
    N = 100); it is materialized once, for this probe and for its point.  An
    inadmissible top rung runs the ladder inline, which raises the lowest
    such rung's error.
    """
    check_ladder(Ns)
    workers, top = requested_workers(max_workers), None
    if workers is None and extended:
        try:
            top = materialize(spec, Ns[-1])
        except InvalidSpecError:
            pass  # inline
        else:
            if not _period(top):
                workers = worker_count()
    outcomes = map_rungs(functools.partial(_attempt, spec, extended, top), Ns, workers or 1)
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
