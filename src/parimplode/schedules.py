"""Built-in perturbation schedules and their admissibility diagnostics.

Every schedule family is a small frozen dataclass; ``materialize(spec, N)``
turns one into concrete :class:`~parimplode.recurrences.PerturbationSequences`.
``encode_spec``/``decode_spec`` give each spec a JSON encoding that mirrors
the dataclass fields in snake_case with a ``variant`` tag; unknown fields are
rejected by name.  The CLI does not read this encoding: its config documents
name fields by flag.

The reference rotation is rho_base = e^{2 pi i / N} for every family, so the
purely additive families (theta == 0) need N >= 6 for the deviation
|1 - e^{2 pi i/N}| to stay inside the admissible disk.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from . import rng
from .errors import InvalidSpecError
from .recurrences import PerturbationSequences, closed_form_T_array

# -- distributions for the random family -------------------------------------


@dataclass(frozen=True)
class UniformSymmetric:
    """Uniform on [-m, m]; m is the almost-sure magnitude bound."""

    m: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.m) and self.m > 0):
            raise InvalidSpecError(f"m must be a positive real, got {self.m}")

    def draw(self, seed: int, trial: int, k: np.ndarray) -> np.ndarray:
        return rng.uniform_symmetric(seed, trial, k, bound=self.m)

    @property
    def magnitude_bound(self) -> float:
        return self.m


@dataclass(frozen=True)
class Rademacher:
    """Equal probability on {-1, +1}."""

    def draw(self, seed: int, trial: int, k: np.ndarray) -> np.ndarray:
        return rng.rademacher(seed, trial, k).astype(float)

    @property
    def magnitude_bound(self) -> float:
        return 1.0


RandomDist = Union[UniformSymmetric, Rademacher]


# -- schedule families --------------------------------------------------------


@dataclass(frozen=True)
class TheoremA:
    """Multiplicative-only decay schedules (cases 1..3).

    Case 1: theta_k = 1/N + u_k/N^3 with the bounded bump pattern u_k.
    Case 2: theta_k = 1/N + c_k/N^2, consecutive pairs cancelling to O(1/N).
    Case 3: theta_k = 1/N + rot_coeff e^{2 pi i k/N}/N^2 plus an
        amplitude-scaled cubic remainder (amplitude=0 gives the pure
        rotating schedule, which converges beyond measurable rates).
    """

    case: int
    amplitude: float = 1.0
    pair_amp: float = 1.0
    pair_bound: float = 1.0
    rot_coeff: float = 1.0

    def __post_init__(self):
        if self.case not in (1, 2, 3):
            raise InvalidSpecError(f"TheoremA case must be 1..3, got {self.case}")
        _require_finite(self, "amplitude", "pair_amp", "pair_bound", "rot_coeff")


@dataclass(frozen=True)
class TheoremB:
    """Mixed schedules (cases 1..5).

    Cases 1..3 reuse the matching TheoremA angles and add a constant
    eps_k = eps_amp/N^2.  Cases 4..5 are purely additive: theta_k = 0 with
    eps_k = pi/N plus a cubic (case 4) or mirrored-pair quadratic (case 5)
    remainder.
    """

    case: int
    amplitude: float = 1.0
    eps_amp: float = 1.0
    pair_amp: float = 1.0
    pair_bound: float = 1.0
    rot_coeff: float = 1.0

    def __post_init__(self):
        if self.case not in (1, 2, 3, 4, 5):
            raise InvalidSpecError(f"TheoremB case must be 1..5, got {self.case}")
        _require_finite(self, "amplitude", "eps_amp", "pair_amp", "pair_bound", "rot_coeff")


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
class RandomSchedule:
    """Additive random schedule eps_k = pi/N + eta_k/N^(1+delta), as :meth:`eps` forms it."""

    delta: float
    dist: RandomDist
    seed: int
    trial: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise InvalidSpecError(f"delta must be a positive real, got {self.delta}")
        if not isinstance(self.dist, (UniformSymmetric, Rademacher)):
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
    TheoremA, TheoremB, QuadraticNonconvergent, CounterexampleC, RandomSchedule, Custom,
]


def _require_finite(obj, *names: str) -> None:
    for name in names:
        val = getattr(obj, name)
        if not math.isfinite(val):
            raise InvalidSpecError(f"{name} must be finite, got {val}")


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
    c = np.where(k % 2 == 1, pair_amp, -pair_amp + pair_bound / N)
    c[0] = 0.0
    return c.astype(float)


def _mirrored_pairs(N: int, pair_amp: float, pair_bound: float) -> np.ndarray:
    # antisymmetric about N/2 plus a mirror-symmetric ripple of size
    # pair_bound/(2N), so |c_k + c_{N-k}| <= pair_bound/N.
    k = np.arange(0, N + 2, dtype=float)
    c = pair_amp * np.sign(N - 2.0 * k) + (pair_bound / (2.0 * N)) * np.cos(2.0 * np.pi * k / 16.0)
    c[0] = 0.0
    return c


def _split_angles(N: int) -> np.ndarray:
    k = np.arange(0, N + 2)
    theta = np.where(k <= N // 2, math.pi / (N - 1), math.pi / (N + 1))
    theta[0] = 0.0
    return theta.astype(float)


def _theorem_angles(spec, N: int) -> np.ndarray:
    if spec.case == 1:
        return 1.0 / N + spec.amplitude * _bump_pattern(N) / N**3
    if spec.case == 2:
        return 1.0 / N + _pair_cancelling(N, spec.pair_amp, spec.pair_bound) / N**2
    k = np.arange(0, N + 2, dtype=float)
    rotating = spec.rot_coeff * np.exp(2j * np.pi * k / N) / N**2
    return 1.0 / N + rotating + spec.amplitude * _bump_pattern(N) / N**3


def _zero_slot(arr: np.ndarray) -> np.ndarray:
    arr[0] = 0.0
    return arr


def materialize(spec: ScheduleSpec, N: int) -> PerturbationSequences:
    """Generate the concrete sequences for one composition length.

    Index N+1 is produced by the same rule as 1..N (the shifted recurrence
    consumes it).  Raises InvalidSpecError for N < 4, for odd N with
    CounterexampleC, and for Custom arrays of the wrong length.
    """
    if N < 4:
        raise InvalidSpecError(f"N must be >= 4, got {N}")
    base = cmath.exp(2j * math.pi / N)
    zeros = np.zeros(N + 2, dtype=complex)

    if isinstance(spec, TheoremA):
        theta = _theorem_angles(spec, N)
        rho = _zero_slot(np.exp(2j * np.pi * theta))
        return PerturbationSequences(rho, zeros, base)

    if isinstance(spec, TheoremB):
        if spec.case <= 3:
            theta = _theorem_angles(spec, N)
            rho = _zero_slot(np.exp(2j * np.pi * theta))
            eps = np.full(N + 2, spec.eps_amp / N**2)
        elif spec.case == 4:
            rho = np.ones(N + 2, dtype=complex)
            eps = math.pi / N + spec.amplitude * _bump_pattern(N) / N**3
        else:
            rho = np.ones(N + 2, dtype=complex)
            eps = math.pi / N + _mirrored_pairs(N, spec.pair_amp, spec.pair_bound) / N**2
        return PerturbationSequences.from_eps(rho, _zero_slot(eps.astype(complex)), base)

    if isinstance(spec, QuadraticNonconvergent):
        rho = np.full(N + 2, cmath.exp(2j * math.pi / (N + 1)))
        return PerturbationSequences(rho, zeros, base)

    if isinstance(spec, CounterexampleC):
        if N % 2 != 0:
            raise InvalidSpecError(f"CounterexampleC needs even N, got {N}")
        theta = _split_angles(N)
        if spec.side == "multiplicative_f":
            rho = _zero_slot(np.exp(2j * theta))
            return PerturbationSequences(rho, zeros, base)
        rho = np.ones(N + 2, dtype=complex)
        eps = _zero_slot(2.0 * np.sin(theta / 2.0)).astype(complex)
        return PerturbationSequences.from_eps(rho, eps, base)

    if isinstance(spec, RandomSchedule):
        eps = spec.eps(N, spec.trial, np.arange(0, N + 2, dtype=np.uint64)).astype(complex)
        return PerturbationSequences.from_eps(np.ones(N + 2, dtype=complex), _zero_slot(eps), base)

    if isinstance(spec, Custom):
        if spec.rho.shape != (N + 2,):
            raise InvalidSpecError(
                f"Custom sequences have length {spec.rho.size}, need N+2 = {N + 2}")
        return PerturbationSequences(spec.rho, spec.eps_sq, spec.rho_base)

    raise InvalidSpecError(f"unsupported schedule spec {type(spec).__name__}")


def random_small_schedule(N: int, seed: int, trial: int,
                          bound: float | None = None) -> PerturbationSequences:
    """Randomized admissible schedule with |b_k| <= bound and |eps_k| <= bound.

    bound defaults to N^-2.  Both perturbations get a uniform magnitude in
    [0, bound] and a uniform phase; four independent counter lanes per step
    (counter 4k + j for lane j at step k, drawn in one call) keep draws
    order-free.  Intended for oracle cross-checks and identity tests, not
    for rate measurement.
    """
    if N < 4:
        raise InvalidSpecError(f"N must be >= 4, got {N}")
    if bound is None:
        bound = 1.0 / N**2
    lanes = rng.uniform01(seed, trial, np.arange(4 * (N + 2), dtype=np.uint64)).reshape(N + 2, 4).T
    b = bound * lanes[0] * np.exp(2j * np.pi * lanes[1])
    eps = bound * lanes[2] * np.exp(2j * np.pi * lanes[3])
    base = cmath.exp(2j * math.pi / N)
    rho = base + b
    rho[0] = 0.0
    eps[0] = 0.0
    return PerturbationSequences.from_eps(rho, eps, base)


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


def conjugacy_check(theta: float) -> tuple[complex, float, float]:
    """Verify the additive/multiplicative change of variables at one angle.

    For rho = e^{2 i theta} and eps = 2 sin(theta/2) the identity
    sqrt(rho) + 1/sqrt(rho) = 2 - eps^2 holds exactly; the square root is
    taken as e^{i theta} (the branch the conjugacy actually uses, which the
    principal branch would break past |theta| = pi/2).
    """
    if not abs(theta) < math.pi:
        raise ValueError(f"theta must satisfy |theta| < pi, got {theta}")
    rho = cmath.exp(2j * theta)
    eps = 2.0 * math.sin(theta / 2.0)
    root = cmath.exp(1j * theta)
    residual = abs(root + 1.0 / root - (2.0 - eps * eps))
    return rho, eps, residual


# -- JSON encoding -------------------------------------------------------------

_VARIANT_FIELDS = {
    "theorem_a": ("case", "amplitude", "pair_amp", "pair_bound", "rot_coeff"),
    "theorem_b": ("case", "amplitude", "eps_amp", "pair_amp", "pair_bound", "rot_coeff"),
    "quadratic_nonconvergent": (),
    "counterexample_c": ("side",),
    "random": ("delta", "dist", "seed", "trial"),
    "custom": ("rho", "eps_sq", "rho_base"),
}


def encode_spec(spec: ScheduleSpec) -> dict:
    """Canonical JSON-ready dict with a ``variant`` tag."""
    if isinstance(spec, TheoremA):
        return {"variant": "theorem_a", "case": spec.case, "amplitude": spec.amplitude,
                "pair_amp": spec.pair_amp, "pair_bound": spec.pair_bound,
                "rot_coeff": spec.rot_coeff}
    if isinstance(spec, TheoremB):
        return {"variant": "theorem_b", "case": spec.case, "amplitude": spec.amplitude,
                "eps_amp": spec.eps_amp, "pair_amp": spec.pair_amp,
                "pair_bound": spec.pair_bound, "rot_coeff": spec.rot_coeff}
    if isinstance(spec, QuadraticNonconvergent):
        return {"variant": "quadratic_nonconvergent"}
    if isinstance(spec, CounterexampleC):
        return {"variant": "counterexample_c", "side": spec.side}
    if isinstance(spec, RandomSchedule):
        if isinstance(spec.dist, UniformSymmetric):
            dist = {"kind": "uniform_symmetric", "m": spec.dist.m}
        else:
            dist = {"kind": "rademacher"}
        return {"variant": "random", "delta": spec.delta, "dist": dist,
                "seed": spec.seed, "trial": spec.trial}
    if isinstance(spec, Custom):
        return {"variant": "custom",
                "rho": [[z.real, z.imag] for z in spec.rho],
                "eps_sq": [[z.real, z.imag] for z in spec.eps_sq],
                "rho_base": [spec.rho_base.real, spec.rho_base.imag]}
    raise InvalidSpecError(f"cannot encode {type(spec).__name__}")


def _reject_unknown(data: Mapping, allowed: tuple, variant: str) -> None:
    for key in data:
        if key != "variant" and key not in allowed:
            raise InvalidSpecError(f"unknown field {key!r} for variant {variant!r}")


def _decode_complex(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(value[0], value[1])
    raise InvalidSpecError(f"expected a number or [re, im] pair, got {value!r}")


def decode_spec(data: Mapping) -> ScheduleSpec:
    """Strict inverse of encode_spec; unknown fields are an error."""
    if "variant" not in data:
        raise InvalidSpecError("schedule document is missing the 'variant' field")
    variant = data["variant"]
    if variant not in _VARIANT_FIELDS:
        raise InvalidSpecError(f"unknown schedule variant {variant!r}")
    _reject_unknown(data, _VARIANT_FIELDS[variant], variant)

    if variant == "theorem_a":
        return TheoremA(case=int(_need(data, "case", variant)),
                        amplitude=float(data.get("amplitude", 1.0)),
                        pair_amp=float(data.get("pair_amp", 1.0)),
                        pair_bound=float(data.get("pair_bound", 1.0)),
                        rot_coeff=float(data.get("rot_coeff", 1.0)))
    if variant == "theorem_b":
        return TheoremB(case=int(_need(data, "case", variant)),
                        amplitude=float(data.get("amplitude", 1.0)),
                        eps_amp=float(data.get("eps_amp", 1.0)),
                        pair_amp=float(data.get("pair_amp", 1.0)),
                        pair_bound=float(data.get("pair_bound", 1.0)),
                        rot_coeff=float(data.get("rot_coeff", 1.0)))
    if variant == "quadratic_nonconvergent":
        return QuadraticNonconvergent()
    if variant == "counterexample_c":
        return CounterexampleC(side=str(_need(data, "side", variant)))
    if variant == "random":
        dist_doc = _need(data, "dist", variant)
        if not isinstance(dist_doc, Mapping) or "kind" not in dist_doc:
            raise InvalidSpecError("dist must be an object with a 'kind' field")
        kind = dist_doc["kind"]
        if kind == "uniform_symmetric":
            _reject_unknown(dist_doc, ("kind", "m"), "uniform_symmetric")
            dist: RandomDist = UniformSymmetric(m=float(dist_doc.get("m", 1.0)))
        elif kind == "rademacher":
            _reject_unknown(dist_doc, ("kind",), "rademacher")
            dist = Rademacher()
        else:
            raise InvalidSpecError(f"unknown distribution kind {kind!r}")
        return RandomSchedule(delta=float(_need(data, "delta", variant)), dist=dist,
                              seed=int(_need(data, "seed", variant)),
                              trial=int(data.get("trial", 0)))
    rho = [_decode_complex(v) for v in _need(data, "rho", variant)]
    eps_sq = [_decode_complex(v) for v in _need(data, "eps_sq", variant)]
    return Custom(rho=np.array(rho), eps_sq=np.array(eps_sq),
                  rho_base=_decode_complex(_need(data, "rho_base", variant)))


def _need(data: Mapping, key: str, variant: str):
    if key not in data:
        raise InvalidSpecError(f"variant {variant!r} requires field {key!r}")
    return data[key]
