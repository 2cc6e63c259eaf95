"""Skew products F(z, w) = (f_w(z), g(w)) with a linear base w -> mu*w.

The base orbit is evaluated in closed form (w_k = mu^k * w_0) and the fiber
consumes w_{k-1} (the parameter seen before applying step k).  This module
holds only the five presets (constant, alternating and rotating bases, with
and without additive perturbations) and their induced schedules, which
``schedules.SkewExample`` hands to the shared pipeline like any other spec.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidSpecError
from .ioutil import fmt17, write_csv
from .recurrences import PerturbationSequences

SKEW_CSV_HEADER = "example_id,N,w_final_abs,fiber_coeff_err,fiber_sup_err"
EXAMPLES = range(1, 6)  # the preset ids build_example takes

_THETA_RULES = ("w_itself", "offset_plus_w")
_EPS_SQ_RULES = ("zero", "w_squared", "w_fourth")


@dataclass(frozen=True)
class SkewSystem:
    """One skew-product family member.

    base_multiplier is concrete (for the rotating base it depends on the N
    the system was built for); w0_rule maps N to the initial base point.
    """

    base_multiplier: complex
    fiber_theta_rule: str
    fiber_eps_sq_rule: str
    w0_rule: Callable[[int], complex]

    def __post_init__(self):
        if self.fiber_theta_rule not in _THETA_RULES:
            raise InvalidSpecError(f"fiber_theta_rule must be one of {_THETA_RULES}")
        if self.fiber_eps_sq_rule not in _EPS_SQ_RULES:
            raise InvalidSpecError(f"fiber_eps_sq_rule must be one of {_EPS_SQ_RULES}")

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
    """The five presets; example 3's base rotation is built for this N."""
    if N < 4:
        raise InvalidSpecError(f"N must be >= 4, got {N}")
    check_example(example_id)
    if example_id == 1:
        return SkewSystem(1.0, "w_itself", "zero", lambda n: 1.0 / n)
    if example_id == 2:
        return SkewSystem(-1.0, "offset_plus_w", "zero", lambda n: -1.0 / n**2)
    if example_id == 3:
        mu = cmath.exp(2j * math.pi / N)
        return SkewSystem(mu, "offset_plus_w", "zero", lambda n: cmath.exp(2j * math.pi / n) / n**2)
    if example_id == 4:
        return SkewSystem(1.0, "w_itself", "w_fourth", lambda n: 1.0 / n)
    return SkewSystem(-1.0, "offset_plus_w", "w_squared", lambda n: -1.0 / n**2)


def induced_schedule(sys: SkewSystem, N: int) -> PerturbationSequences:
    """The non-autonomous fiber schedule: step k sees w_{k-1}."""
    # the base orbit w_0..w_N in closed form; w[k-1] drives step k, k = 1..N+1
    w = complex(sys.w0_rule(N)) * np.asarray(sys.base_multiplier, dtype=complex) ** np.arange(0, N + 1)
    if sys.fiber_theta_rule == "w_itself":
        theta = w
    else:
        theta = 1.0 / N + w
    rho = np.empty(N + 2, dtype=complex)
    rho[0] = 0.0
    rho[1:] = np.exp(2j * np.pi * theta)
    eps_sq = np.zeros(N + 2, dtype=complex)
    if sys.fiber_eps_sq_rule == "w_squared":
        eps_sq[1:] = w * w
    elif sys.fiber_eps_sq_rule == "w_fourth":
        eps_sq[1:] = w**4
    return PerturbationSequences(rho, eps_sq, cmath.exp(2j * math.pi / N))


def write_skew_csv(rows: list[tuple[int, SkewOrbitResult]], path: str) -> None:
    """Rows are (example_id, result) pairs."""
    body = (
        (str(ex_id), str(res.N), fmt17(abs(res.w_final)),
         fmt17(res.fiber_coeff_err), fmt17(res.fiber_sup_err))
        for ex_id, res in rows
    )
    write_csv(path, SKEW_CSV_HEADER, body)
