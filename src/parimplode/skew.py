"""Skew products F(z, w) = (f_w(z), g(w)) with a linear base w -> mu*w.

The base orbit is evaluated in closed form (w_k = mu^k * w_0) and the fiber
consumes w_{k-1} (the parameter seen before applying step k).  This module
holds only the five presets (constant, alternating and rotating bases, with
and without additive perturbations), their induced schedules, which
``schedules.SkewExample`` hands to the shared pipeline like any other spec,
and the rows read off that pipeline's points (``orbit_results``).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidSpecError
from .ioutil import write_csv
from .recurrences import PerturbationSequences

SKEW_CSV_HEADER = "example_id,N,w_final_abs,fiber_coeff_err,fiber_sup_err"
EXAMPLES = range(1, 6)  # the preset ids build_example takes, the keys of _PRESETS

# example id -> (mu, w_0, theta offset, eps power): the base multiplier and
# the initial point as rules of N; step k sees w = w_{k-1} through
# theta_k = w (+ 1/N with the offset) and eps_k^2 = w ** power (0 at power 0).
_PRESETS = {
    1: (lambda n: 1.0, lambda n: 1.0 / n, False, 0),
    2: (lambda n: -1.0, lambda n: -1.0 / n**2, True, 0),
    3: (lambda n: cmath.exp(2j * math.pi / n), lambda n: cmath.exp(2j * math.pi / n) / n**2, True, 0),
    4: (lambda n: 1.0, lambda n: 1.0 / n, False, 4),
    5: (lambda n: -1.0, lambda n: -1.0 / n**2, True, 2),
}


@dataclass(frozen=True)
class SkewSystem:
    """One skew-product family member, a row of ``_PRESETS``.

    base_multiplier is concrete (for the rotating base it depends on the N
    the system was built for); w0_rule maps N to the initial base point.
    """

    base_multiplier: complex
    w0_rule: Callable[[int], complex]
    theta_offset: bool
    eps_power: int

    def w_final(self, N: int) -> complex:
        """w_N = mu^N w_0 in closed form (one scalar power, not the numpy
        powers of ``induced_schedule``)."""
        return complex(self.w0_rule(N)) * complex(self.base_multiplier) ** N


@dataclass(frozen=True)
class SkewOrbitResult:
    N: int
    w_final: complex
    fiber_coeff_err: float
    fiber_sup_err: float


def check_example(example_id: int) -> None:
    """Raise InvalidSpecError unless example_id is one of EXAMPLES."""
    if example_id not in EXAMPLES:
        raise InvalidSpecError(f"example: must be {EXAMPLES[0]}..{EXAMPLES[-1]}, got {example_id}")


def build_example(example_id: int, N: int) -> SkewSystem:
    """The preset ``example_id``; example 3's base rotation is built for this N."""
    if N < 4:
        raise InvalidSpecError(f"N must be >= 4, got {N}")
    check_example(example_id)
    mu, w0_rule, theta_offset, eps_power = _PRESETS[example_id]
    return SkewSystem(mu(N), w0_rule, theta_offset, eps_power)


def induced_schedule(sys: SkewSystem, N: int) -> PerturbationSequences:
    """The non-autonomous fiber schedule: step k sees w_{k-1}."""
    # the base orbit w_0..w_N in closed form; w[k-1] drives step k, k = 1..N+1
    w = complex(sys.w0_rule(N)) * np.asarray(sys.base_multiplier, dtype=complex) ** np.arange(0, N + 1)
    theta = 1.0 / N + w if sys.theta_offset else w
    rho = np.empty(N + 2, dtype=complex)
    rho[0] = 0.0
    rho[1:] = np.exp(2j * np.pi * theta)
    eps_sq = np.zeros(N + 2, dtype=complex)
    if sys.eps_power:
        eps_sq[1:] = w**sys.eps_power
    return PerturbationSequences(rho, eps_sq, cmath.exp(2j * math.pi / N))


def orbit_results(example_id: int, points) -> list[SkewOrbitResult]:
    """The rows of a ladder of ``SkewExample(example_id)``, from its
    ``run_sweep`` points: each rung's N and w_N, and its fiber errors."""
    return [SkewOrbitResult(p.N, build_example(example_id, p.N).w_final(p.N), p.coeff_err, p.sup_err)
            for p in points]


def write_skew_csv(rows: list[tuple[int, SkewOrbitResult]], path: str) -> None:
    """Rows are (example_id, result) pairs."""
    body = ((ex_id, res.N, abs(res.w_final), res.fiber_coeff_err, res.fiber_sup_err)
            for ex_id, res in rows)
    write_csv(path, SKEW_CSV_HEADER, "ddggg", body)
