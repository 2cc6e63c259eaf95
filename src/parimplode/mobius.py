"""Moebius (linear fractional) transformations as coefficient quadruples.

A map z -> (a*z + b)/(c*z + d) is identified with its 2x2 coefficient
matrix up to a nonzero complex scale.  The module holds the brute-force
oracle, ``compose_chain`` (a direct product of the step matrices), and the
distances the measurements read: ``projective_distance`` between two maps,
``projective_coeff_error`` and the grid sup ``identity_distance`` from the
identity.  It must stay independent of the recurrence machinery it checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AllPointsSkippedError, DegenerateMapError, DegenerateNormalizationError

_RENORM_EVERY = 64  # renormalize chain products this often to dodge overflow


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


@dataclass(frozen=True)
class EvalRegion:
    """A closed disk in the plane with grid-evaluation parameters.

    ``pole_guard`` is the minimum admissible distance from the map's pole;
    grid points closer than that are skipped (and counted).  When left at
    None it defaults to ``1e-3 * radius``.
    """

    center: complex = 0.0
    radius: float = 0.25
    grid_points: int = 64
    pole_guard: float | None = field(default=None)

    def __post_init__(self):
        _require_finite("center", complex(self.center))
        if not (self.radius > 0):
            raise ValueError(f"radius must be > 0, got {self.radius}")
        if self.grid_points < 2:
            raise ValueError(f"grid_points must be >= 2, got {self.grid_points}")
        if self.pole_guard is None:
            object.__setattr__(self, "pole_guard", 1e-3 * self.radius)
        if not (self.pole_guard > 0):
            raise ValueError(f"pole_guard must be > 0, got {self.pole_guard}")

    def grid(self) -> np.ndarray:
        """Complex grid over the bounding square, masked to the disk.

        Returns a 1-D array of the in-disk points, in row-major order of
        the underlying (y, x) mesh so that "first maximum" is well defined.
        """
        xs = np.linspace(self.center.real - self.radius, self.center.real + self.radius, self.grid_points)
        ys = np.linspace(self.center.imag - self.radius, self.center.imag + self.radius, self.grid_points)
        X, Y = np.meshgrid(xs, ys)
        Z = (X + 1j * Y).ravel()
        return Z[np.abs(Z - self.center) <= self.radius]


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
    rows = maps.tolist()
    if not rows:
        raise ValueError("compose_chain requires at least one map")
    (a, b), c, d = rows[0], -1 + 0j, 1 + 0j
    for i, (ma, mb) in enumerate(rows[1:], start=2):
        # row times current, current applied first
        a, b, c, d = ma * a + mb * c, ma * b + mb * d, c - a, d - b
        if i % _RENORM_EVERY == 0:
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
        When |d| <= 1e-12; the map is far from the identity and the caller
        should report divergence instead.
    """
    if abs(map_.d) <= 1e-12:
        raise DegenerateNormalizationError(f"|d|={abs(map_.d)!r} too small to normalize")
    return abs(map_.a / map_.d - 1.0) + abs(map_.b / map_.d) + abs(map_.c / map_.d)


def projective_distance(m1: MoebiusCoeffs, m2: MoebiusCoeffs) -> float:
    """Phase-aligned distance between unit-normalized coefficient vectors.

    Both quadruples are scaled to unit Euclidean norm, then one is rotated
    by the phase that best aligns them; the result is the norm of the
    difference.  Zero iff the maps agree projectively.  This is the metric
    used for oracle cross-checks.
    """
    v1 = np.array(m1.as_tuple(), dtype=complex)
    v2 = np.array(m2.as_tuple(), dtype=complex)
    v1 /= np.linalg.norm(v1)
    v2 /= np.linalg.norm(v2)
    phase = np.vdot(v2, v1)
    mag = abs(phase)
    if mag == 0:  # orthogonal; maximal separation
        return math.sqrt(2.0)
    return float(np.linalg.norm(v1 - (phase / mag) * v2))


def identity_distance(map_: MoebiusCoeffs, region: EvalRegion):
    """Sup of |F(z) - z| over the region's grid, away from the pole.

    Parameters
    ----------
    map_ : MoebiusCoeffs
    region : EvalRegion

    Returns
    -------
    (sup_error, skipped_points) : (float, int)
        Maximum deviation over admissible grid points and the number of
        in-disk points discarded by the pole guard.

    Raises
    ------
    AllPointsSkippedError
        When the guard removes every grid point (gross divergence).
    """
    Z = region.grid()
    keep = np.ones(Z.shape, dtype=bool)
    pole = map_.pole()
    if pole is not None:
        keep = np.abs(Z - pole) >= region.pole_guard
    skipped = int(np.count_nonzero(~keep))
    Z = Z[keep]
    if Z.size == 0:
        raise AllPointsSkippedError("every grid point is within pole_guard of the pole")
    W = (map_.a * Z + map_.b) / (map_.c * Z + map_.d)
    sup = float(np.max(np.abs(W - Z)))
    return sup, skipped

