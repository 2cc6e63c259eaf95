"""Built-in perturbation schedules and their admissibility diagnostic.

Every schedule family is a small frozen dataclass; ``materialize(spec, N)``
turns one into concrete :class:`~parimplode.recurrences.PerturbationSequences`.

The reference rotation is rho_base = e^{2 pi i / N} for every family, so the
purely additive families (theta == 0) need N >= 6 for the deviation
|1 - e^{2 pi i/N}| to stay inside the admissible disk.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from . import rng
from .errors import InvalidSpecError
from .recurrences import PerturbationSequences, closed_form_T_array
from .skew import build_example, check_example, induced_schedule

# -- the distribution of the random family ------------------------------------


@dataclass(frozen=True)
class UniformSymmetric:
    """Uniform on [-m, m]; m is the almost-sure magnitude bound."""

    m: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.m) and self.m > 0):
            raise InvalidSpecError(f"m: must be a positive real, got {self.m}")

    def draw(self, seed: int, trial: int, k: np.ndarray) -> np.ndarray:
        return rng.uniform_symmetric(seed, trial, k, bound=self.m)


# -- schedule families --------------------------------------------------------


@dataclass(frozen=True)
class TheoremA:
    """Multiplicative-only decay schedules (cases 1..3).

    Case 1: theta_k = 1/N + u_k/N^3 with the bounded bump pattern u_k.
    Case 2: theta_k = 1/N + c_k/N^2, consecutive pairs cancelling to O(1/N).
    Case 3: theta_k = 1/N + rot_coeff e^{2 pi i k/N}/N^2 plus an
        amplitude-scaled cubic remainder (amplitude=0 gives the pure
        rotating schedule, which converges beyond measurable rates).

    A parameter the case does not read must keep its default.
    """

    case: int
    amplitude: float = 1.0
    pair_amp: float = 1.0
    pair_bound: float = 1.0
    rot_coeff: float = 1.0

    def __post_init__(self):
        if self.case not in (1, 2, 3):
            raise InvalidSpecError(f"case: TheoremA has cases 1..3, got {self.case}")
        _check_params(self, _A_READS[self.case])


@dataclass(frozen=True)
class TheoremB:
    """Mixed schedules (cases 1..5).

    Cases 1..3 reuse the matching TheoremA angles and add a constant
    eps_k = eps_amp/N^2.  Cases 4..5 are purely additive: theta_k = 0 with
    eps_k = pi/N plus a cubic (case 4) or mirrored-pair quadratic (case 5)
    remainder.  A parameter the case does not read must keep its default.
    """

    case: int
    amplitude: float = 1.0
    eps_amp: float = 1.0
    pair_amp: float = 1.0
    pair_bound: float = 1.0
    rot_coeff: float = 1.0

    def __post_init__(self):
        if self.case not in (1, 2, 3, 4, 5):
            raise InvalidSpecError(f"case: TheoremB has cases 1..5, got {self.case}")
        _check_params(self, _B_READS[self.case])


@dataclass(frozen=True)
class QuadraticNonconvergent:
    """Constant rho_k = e^{2 pi i/(N+1)}: the angle mismatch is order 1/N^2
    yet the composition stays a bounded distance from the identity."""


@dataclass(frozen=True)
class CounterexampleC:
    """Piecewise-constant angle schedule, two conjugate realizations.

    ``multiplicative_f`` uses rho_k = e^{2 i theta_k} (angle factor 2, not
    2 pi) and no additive part; ``additive_g`` uses rho == 1 with
    eps_k = 2 sin(theta_k/2).  The angles are pi/(N-1) on the first half
    and pi/(N+1) on the second.
    """

    side: str

    def __post_init__(self):
        if self.side not in ("multiplicative_f", "additive_g"):
            raise InvalidSpecError(
                f"side must be 'multiplicative_f' or 'additive_g', got {self.side!r}")


@dataclass(frozen=True)
class SkewExample:
    """The fiber schedule of skew-product preset ``example`` (one of
    ``skew.EXAMPLES``), induced by its base orbit at each N."""

    example: int

    def __post_init__(self):
        check_example(self.example)


@dataclass(frozen=True)
class RandomSchedule:
    """Additive random schedule eps_k = pi/N + eta_k/N^(1+delta), as :meth:`eps` forms it."""

    delta: float
    dist: UniformSymmetric
    seed: int
    trial: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise InvalidSpecError(f"delta: must be a positive real, got {self.delta}")
        if not isinstance(self.dist, UniformSymmetric):
            raise InvalidSpecError(f"unsupported distribution {self.dist!r}")
        if not isinstance(self.seed, int) or not isinstance(self.trial, int):
            raise InvalidSpecError("seed and trial must be integers")

    def eps(self, N: int, trial, k) -> np.ndarray:
        """eps_k at steps k (uint64) of the given trial(s); broadcasts like dist.draw."""
        return math.pi / N + self.dist.draw(self.seed, trial, k) / N ** (1.0 + self.delta)


@dataclass(frozen=True, eq=False)
class Custom:
    """Explicit sequences supplied by the caller (arrays of length N+2)."""

    rho: np.ndarray
    eps_sq: np.ndarray
    rho_base: complex

    def __post_init__(self):
        object.__setattr__(self, "rho", np.asarray(self.rho, dtype=complex))
        object.__setattr__(self, "eps_sq", np.asarray(self.eps_sq, dtype=complex))


ScheduleSpec = Union[
    TheoremA, TheoremB, QuadraticNonconvergent, CounterexampleC, SkewExample, RandomSchedule, Custom,
]


# the parameters each case reads, as _theorem_angles and _sequences use them
_A_READS = {1: ("amplitude",), 2: ("pair_amp", "pair_bound"), 3: ("rot_coeff", "amplitude")}
_B_READS = {**{case: (*reads, "eps_amp") for case, reads in _A_READS.items()},
            4: ("amplitude",), 5: ("pair_amp", "pair_bound")}


def _check_params(spec, reads: tuple[str, ...]) -> None:
    """Every parameter after ``case`` finite, and at its default unless ``reads`` names it."""
    for field in fields(spec)[1:]:
        val = getattr(spec, field.name)
        if not math.isfinite(val):
            raise InvalidSpecError(f"{field.name} must be finite, got {val}")
        if field.name not in reads and val != field.default:
            raise InvalidSpecError(
                f"{field.name}: {type(spec).__name__} case {spec.case} does not read it, got {val}")


# -- generators ----------------------------------------------------------------
# The bump pattern u_k has |u_k| <= 1 and a strictly positive mean; schedules
# with a zero-mean remainder converge one full order faster and would put the
# measured rates outside the regime being demonstrated.


def _bump_pattern(N: int) -> np.ndarray:
    k = np.arange(0, N + 2, dtype=float)
    return 0.5 * (1.0 + np.cos(np.pi * k / 4.0))


def _pair_cancelling(N: int, pair_amp: float, pair_bound: float) -> np.ndarray:
    # c_{2j-1} = pair_amp, c_{2j} = -pair_amp + pair_bound/N, so each
    # consecutive odd/even pair sums to pair_bound/N exactly.
    k = np.arange(0, N + 2)
    return np.where(k % 2 == 1, pair_amp, -pair_amp + pair_bound / N).astype(float)


def _mirrored_pairs(N: int, pair_amp: float, pair_bound: float) -> np.ndarray:
    # antisymmetric about N/2 plus a mirror-symmetric ripple of size
    # pair_bound/(2N), so |c_k + c_{N-k}| <= pair_bound/N.
    k = np.arange(0, N + 2, dtype=float)
    return pair_amp * np.sign(N - 2.0 * k) + (pair_bound / (2.0 * N)) * np.cos(2.0 * np.pi * k / 16.0)


def _split_angles(N: int) -> np.ndarray:
    k = np.arange(0, N + 2)
    return np.where(k <= N // 2, math.pi / (N - 1), math.pi / (N + 1)).astype(float)


def _theorem_angles(spec, N: int) -> np.ndarray:
    if spec.case == 1:
        return 1.0 / N + spec.amplitude * _bump_pattern(N) / N**3
    if spec.case == 2:
        return 1.0 / N + _pair_cancelling(N, spec.pair_amp, spec.pair_bound) / N**2
    k = np.arange(0, N + 2, dtype=float)
    rotating = spec.rot_coeff * np.exp(2j * np.pi * k / N) / N**2
    return 1.0 / N + rotating + spec.amplitude * _bump_pattern(N) / N**3


def materialize(spec: ScheduleSpec, N: int) -> PerturbationSequences:
    """Generate the concrete sequences for one composition length.

    Index N+1 is produced by the same rule as 1..N, so the schedule shifted
    one step ahead is laid out the same way.  Raises InvalidSpecError for
    N < 4, and, naming the rung ("N=<N>: ..."), for odd N with
    CounterexampleC, wrong-length Custom arrays or a step with |b_k| > 1.
    """
    if N < 4:
        raise InvalidSpecError(f"N must be >= 4, got {N}")
    try:
        return _sequences(spec, N)
    except InvalidSpecError as exc:
        raise InvalidSpecError(f"N={N}: {exc}") from None


def _sequences(spec: ScheduleSpec, N: int) -> PerturbationSequences:
    base = cmath.exp(2j * math.pi / N)
    zeros = np.zeros(N + 2, dtype=complex)

    if isinstance(spec, TheoremA):
        theta = _theorem_angles(spec, N)
        return PerturbationSequences(np.exp(2j * np.pi * theta), zeros, base)

    if isinstance(spec, TheoremB):
        if spec.case <= 3:
            theta = _theorem_angles(spec, N)
            rho = np.exp(2j * np.pi * theta)
            eps = np.full(N + 2, spec.eps_amp / N**2)
        elif spec.case == 4:
            rho = np.ones(N + 2, dtype=complex)
            eps = math.pi / N + spec.amplitude * _bump_pattern(N) / N**3
        else:
            rho = np.ones(N + 2, dtype=complex)
            eps = math.pi / N + _mirrored_pairs(N, spec.pair_amp, spec.pair_bound) / N**2
        return PerturbationSequences.from_eps(rho, eps, base)

    if isinstance(spec, QuadraticNonconvergent):
        rho = np.full(N + 2, cmath.exp(2j * math.pi / (N + 1)))
        return PerturbationSequences(rho, zeros, base)

    if isinstance(spec, CounterexampleC):
        if N % 2 != 0:
            raise InvalidSpecError(f"CounterexampleC needs even N, got {N}")
        theta = _split_angles(N)
        if spec.side == "multiplicative_f":
            return PerturbationSequences(np.exp(2j * theta), zeros, base)
        rho = np.ones(N + 2, dtype=complex)
        return PerturbationSequences.from_eps(rho, 2.0 * np.sin(theta / 2.0), base)

    if isinstance(spec, SkewExample):
        return induced_schedule(build_example(spec.example, N), N)

    if isinstance(spec, RandomSchedule):
        eps = spec.eps(N, spec.trial, np.arange(0, N + 2, dtype=np.uint64))
        return PerturbationSequences.from_eps(np.ones(N + 2, dtype=complex), eps, base)

    if isinstance(spec, Custom):
        if spec.rho.shape != (N + 2,):
            raise InvalidSpecError(
                f"Custom sequences have length {spec.rho.size}, need N+2 = {N + 2}")
        return PerturbationSequences(spec.rho, spec.eps_sq, spec.rho_base)

    raise InvalidSpecError(f"unsupported schedule spec {type(spec).__name__}")


def random_small_schedules(N: int, seed: int, trials) -> list[PerturbationSequences]:
    """Randomized admissible schedules with |b_k| <= N^-2 and |eps_k| <= N^-2.

    One schedule per entry of ``trials``, in the order listed.  Both
    perturbations get a uniform magnitude in [0, N^-2] and a uniform phase;
    four independent counter lanes per step (counter 4k + j for lane j at
    step k) keep draws order-free, so every listed trial is drawn in one
    call and each schedule is bit for bit the one its trial gives alone.
    Intended for oracle cross-checks and identity tests, not for rate
    measurement.
    """
    if N < 4:
        raise InvalidSpecError(f"N must be >= 4, got {N}")
    trials = np.asarray(trials, dtype=np.uint64)
    counters = np.arange(4 * (N + 2), dtype=np.uint64)
    # axis 2 is (b_k, eps_k), axis 3 (magnitude, phase); PerturbationSequences zeroes slot 0
    lanes = rng.uniform01(seed, trials[:, None], counters[None, :]).reshape(trials.size, N + 2, 2, 2)
    z = (1.0 / N**2) * lanes[..., 0] * np.exp(2j * np.pi * lanes[..., 1])
    base = cmath.exp(2j * math.pi / N)
    rho = base + z[..., 0]
    eps_sq = z[..., 1] * z[..., 1]
    return [PerturbationSequences(r, e, base) for r, e in zip(rho, eps_sq)]


def random_small_schedule(N: int, seed: int, trial: int) -> PerturbationSequences:
    """The one-trial case of :func:`random_small_schedules`."""
    return random_small_schedules(N, seed, [trial])[0]


# -- diagnostics ---------------------------------------------------------------


def summation_diagnostic(seqs: PerturbationSequences) -> tuple[complex, float]:
    """Partial-sum admissibility probe: sum_{k=1}^{N-1} a_k T_k.

    Returns (sum_value, N*|sum_value|).  The scaled value stays O(1) for
    schedules whose composition converges to the identity and grows
    linearly for the quadratic non-convergent family.
    """
    N = seqs.N
    T = closed_form_T_array(N)
    a = seqs.a
    total = complex(np.sum(a[1:N] * T[1:N]))
    return total, N * abs(total)
