"""Moebius (linear fractional) transformations as coefficient quadruples.

A map z -> (a*z + b)/(c*z + d) is identified with its 2x2 coefficient
matrix up to a nonzero complex scale.  The module holds the brute-force
oracle, ``compose_chain`` (a direct product of the step matrices), and the
distances the measurements read: ``projective_distance`` between two maps,
``projective_coeff_error`` and the grid sup ``identity_distance`` from the
identity.  That sup is read on one fixed grid, built once at import; its
pole guard removes at most one point, so no map can empty it.  The module
must stay independent of the recurrence machinery it checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMapError, DegenerateNormalizationError

_RENORM_EVERY = 64  # renormalize chain products this often to dodge overflow
NORMALIZATION_FLOOR = 1e-12  # largest |d| that a coefficient error refuses to divide by


def _require_finite(name: str, z: complex) -> None:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{name} must be finite, got {z!r}")


@dataclass(frozen=True)
class MoebiusCoeffs:
    """Coefficients of z -> (a*z + b)/(c*z + d).

    Parameters
    ----------
    a, b, c, d : complex
        Map coefficients.  The map must be non-degenerate (a*d - b*c != 0)
        and all components finite.
    """

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            _require_finite(name, getattr(self, name))
        if self.det() == 0:
            raise DegenerateMapError(f"degenerate coefficients {self.as_tuple()}")

    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def as_tuple(self):
        return (self.a, self.b, self.c, self.d)

    def pole(self) -> complex | None:
        """The finite pole -d/c, or None when c == 0."""
        if self.c == 0:
            return None
        return -self.d / self.c


def _disk_grid() -> np.ndarray:
    xs = np.linspace(-0.25, 0.25, 64)
    X, Y = np.meshgrid(xs, xs)
    Z = (X + 1j * Y).ravel()
    Z = Z[np.abs(Z) <= 0.25]
    Z.setflags(write=False)
    return Z


# the 3,096 in-disk points of a 64 x 64 mesh over [-0.25, 0.25]^2, row-major
# (y, x) so "first maximum" is defined; points nearer a pole than _POLE_GUARD
# are skipped, and at a spacing of 0.5/63 (0.0079) that is at most one point
_GRID = _disk_grid()
_POLE_GUARD = 2.5e-4
# A pole with |pole| past this lies farther than _POLE_GUARD from every grid
# point: |z| <= 0.25 on the grid, and the 1e-12 covers the rounding of
# |pole| and of each |z - pole|, a few ulps.  identity_distance then skips
# the guard's pass over the grid, which would keep every point.
_POLE_FAR = 0.25 + _POLE_GUARD + 1e-12


@dataclass(frozen=True)
class EvalRegion:
    """The closed disk |z| <= 0.25 on which ``identity_distance`` is read."""

    def grid(self) -> np.ndarray:
        """The read-only module grid of 3,096 in-disk points (row-major)."""
        return _GRID


def compose_chain(maps: np.ndarray) -> MoebiusCoeffs:
    """Left-fold product M_n * ... * M_1 of step matrices (row 1 applied first).

    Row k holds the two entries (a_k, b_k) of M_k = [[a_k, b_k], [-1, 1]]
    that vary; the bottom row of every step matrix of the composition is
    (-1, 1).  The fold therefore updates the product (a, b, c, d) as

        (a_k a + b_k c,  a_k b + b_k d,  c - a,  d - b),

    which is the four-entry fold bit for bit: binary64 multiplies by -1
    and 1 without rounding, so dropping those four complex products can
    change at most the sign of an entry that is exactly zero.  Entries are
    renormalized by the largest modulus every 64 maps to prevent overflow
    on adversarial inputs, so the returned coefficients represent the
    product projectively.

    The fold runs over Python complex values.  A renormalization multiplies
    by the reciprocal of the scale rather than dividing by it: that is how
    numpy divides a complex scalar by a real one, so the result is bit for
    bit what the same fold over numpy scalars gives.

    Parameters
    ----------
    maps : (n, 2) complex array of rows (a_k, b_k)
        Non-empty; the first row is applied first.  This is the layout
        ``PerturbationSequences.step_maps`` returns.

    Raises
    ------
    DegenerateMapError
        If any intermediate product degenerates.
    """
    col_a, col_b = maps.T.tolist()
    n = len(col_a)
    if not n:
        raise ValueError("compose_chain requires at least one map")
    a, b, c, d = col_a[0], col_b[0], -1 + 0j, 1 + 0j
    # block i folds maps i - 63..i (the first from map 2), then renormalizes if full
    for i in range(_RENORM_EVERY, n + _RENORM_EVERY, _RENORM_EVERY):
        lo = max(1, i - _RENORM_EVERY)
        for ma, mb in zip(col_a[lo:i], col_b[lo:i]):
            # row times current, current applied first
            a, b, c, d = ma * a + mb * c, ma * b + mb * d, c - a, d - b
        if i <= n:
            scale = max(abs(a), abs(b), abs(c), abs(d))
            if scale == 0 or not math.isfinite(scale):
                raise DegenerateMapError(f"chain product degenerated at step {i}")
            inv = 1.0 / scale
            a, b, c, d = a * inv, b * inv, c * inv, d * inv
    return MoebiusCoeffs(a, b, c, d)


def projective_coeff_error(map_: MoebiusCoeffs) -> float:
    """Scale-invariant coefficient distance from the identity.

    Returns |a/d - 1| + |b/d| + |c/d|; zero iff the map is projectively
    the identity.

    Raises
    ------
    DegenerateNormalizationError
        When |d| <= ``NORMALIZATION_FLOOR`` (1e-12); the map is far from the
        identity and the caller should report divergence instead.
    """
    if abs(map_.d) <= NORMALIZATION_FLOOR:
        raise DegenerateNormalizationError(f"|d|={abs(map_.d)!r} too small to normalize")
    return abs(map_.a / map_.d - 1.0) + abs(map_.b / map_.d) + abs(map_.c / map_.d)


def projective_distance(m1: MoebiusCoeffs, m2: MoebiusCoeffs) -> float:
    """Phase-aligned distance between unit-normalized coefficient vectors.

    Both quadruples are scaled to unit Euclidean norm, then one is rotated
    by the phase that best aligns them; the result is the norm of the
    difference.  Zero iff the maps agree projectively.  This is the metric
    used for oracle cross-checks.
    """
    v1, v2 = _unit(m1), _unit(m2)
    phase = sum(y.conjugate() * x for x, y in zip(v1, v2))
    mag = abs(phase)
    if mag == 0:  # orthogonal; maximal separation
        return math.sqrt(2.0)
    turn = phase / mag
    a, b, c, d = (x - turn * y for x, y in zip(v1, v2))
    return math.hypot(a.real, a.imag, b.real, b.imag, c.real, c.imag, d.real, d.imag)


def _unit(map_: MoebiusCoeffs) -> tuple:
    """The coefficients as Python complex values, scaled to unit Euclidean
    norm (math.hypot, which neither overflows nor underflows on the way)."""
    a, b, c, d = map(complex, map_.as_tuple())
    scale = 1.0 / math.hypot(a.real, a.imag, b.real, b.imag, c.real, c.imag, d.real, d.imag)
    return a * scale, b * scale, c * scale, d * scale


def identity_distance(map_: MoebiusCoeffs, region: EvalRegion):
    """Sup of |F(z) - z| over the disk grid, away from the pole.

    The grid is fixed: the 3,096 points of ``EvalRegion().grid()``.  Points
    within 2.5e-4 of the map's pole are skipped; the grid spacing is about
    0.0079, so at most one point is, and at least 3,095 are always read.

    Parameters
    ----------
    map_ : MoebiusCoeffs
    region : EvalRegion

    Returns
    -------
    (sup_error, skipped_points) : (float, int)
        Maximum deviation over admissible grid points and the number of
        in-disk points discarded by the pole guard.
    """
    Z = region.grid()
    pole = map_.pole()
    skipped = 0
    if pole is not None and not math.hypot(pole.real, pole.imag) > _POLE_FAR:
        keep = np.abs(Z - pole) >= _POLE_GUARD
        skipped = int(np.count_nonzero(~keep))
        Z = Z[keep]
    W = (map_.a * Z + map_.b) / (map_.c * Z + map_.d)
    sup = float(np.max(np.abs(W - Z)))
    return sup, skipped
