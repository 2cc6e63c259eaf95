"""Coefficient-matrix layer: composition oracle, projective metrics, grids."""
import cmath
import math
import random

import numpy as np
import pytest

from parimplode import (
    AllPointsSkippedError,
    DegenerateMapError,
    DegenerateNormalizationError,
    EvalRegion,
    MoebiusCoeffs,
    compose_chain,
    identity_distance,
    projective_coeff_error,
    projective_distance,
)

_IDENTITY = MoebiusCoeffs(1.0, 0.0, 0.0, 1.0)


def _random_map(rng: random.Random) -> MoebiusCoeffs:
    # determinants well away from 0 keep every product well conditioned
    while True:
        vals = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)]
        m = MoebiusCoeffs(*vals)
        if abs(m.det()) > 0.5:
            return m


def _scaled(m: MoebiusCoeffs, lam: complex) -> MoebiusCoeffs:
    return MoebiusCoeffs(*(lam * v for v in m.as_tuple()))


def _apply(m: MoebiusCoeffs, z: complex) -> complex:
    return (m.a * z + m.b) / (m.c * z + m.d)


def test_degenerate_coefficients_rejected():
    with pytest.raises(DegenerateMapError):
        MoebiusCoeffs(1.0, 2.0, 2.0, 4.0)
    with pytest.raises(ValueError):
        MoebiusCoeffs(float("nan"), 0.0, 0.0, 1.0)


def test_identity_and_pole():
    assert _IDENTITY.pole() is None
    assert MoebiusCoeffs(1.0, 0.0, -2.0, 1.0).pole() == 0.5


def _random_step(rng: random.Random) -> tuple:
    # the varying entries (a_k, b_k) of [[a_k, b_k], [-1, 1]], with the
    # determinant a_k + b_k well away from 0
    while True:
        a, b = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(2))
        if abs(a + b) > 0.5:
            return a, b


def test_compose_chain_equals_raw_matrix_fold():
    rng = random.Random(5)
    rows = [_random_step(rng) for _ in range(130)]  # crosses two renormalizations
    chain = compose_chain(np.array(rows))
    acc = np.array([[rows[0][0], rows[0][1]], [-1, 1]])
    for a, b in rows[1:]:
        acc = np.array([[a, b], [-1, 1]]) @ acc
        acc /= np.max(np.abs(acc))
    want = MoebiusCoeffs(acc[0, 0], acc[0, 1], acc[1, 0], acc[1, 1])
    assert projective_distance(chain, want) < 1e-12


def test_compose_chain_renormalizes_past_overflow():
    # n copies of [[3, 0], [-1, 1]] multiply to [[3^n, 0], [-(3^n - 1)/2, 1]].
    # At n = 700 the entry 3^n (about 1e334) is far past the binary64 range;
    # 600 copies (about 1e286) would not be.  Projectively the product is
    # [[1, 0], [-(1 - 3^-n)/2, 3^-n]], whose 3^-n lies below the range too,
    # so the check reads c/a and the ratio |a/d| on a log scale.  From 704
    # copies on, the renormalized d underflows to 0 and the product degenerates.
    n = 700
    coeffs = compose_chain(np.tile(np.array([3.0, 0.0], dtype=complex), (n, 1)))
    assert all(math.isfinite(abs(v)) for v in coeffs.as_tuple())
    assert coeffs.b == 0
    assert abs(coeffs.c / coeffs.a + 0.5) < 1e-13
    log_ratio = math.log(abs(coeffs.a)) - math.log(abs(coeffs.d))
    assert abs(log_ratio / (n * math.log(3.0)) - 1.0) < 1e-13


def test_compose_chain_requires_maps():
    with pytest.raises(ValueError):
        compose_chain(np.empty((0, 2), dtype=complex))


def test_projective_distance_properties():
    rng = random.Random(9)
    for _ in range(50):
        m = _random_map(rng)
        n = _random_map(rng)
        assert projective_distance(m, m) < 1e-15
        assert projective_distance(m, _scaled(m, cmath.exp(1.7j) * 5.0)) < 1e-14
        assert projective_distance(m, n) == pytest.approx(projective_distance(n, m), abs=1e-14)


def test_projective_coeff_error_identity_and_normalization_guard():
    assert projective_coeff_error(_IDENTITY) == 0.0
    assert projective_coeff_error(_scaled(_IDENTITY, 2.0j)) == 0.0
    m = MoebiusCoeffs(1.0, 0.1, 0.05, 1.0)
    assert projective_coeff_error(m) == pytest.approx(0.15, abs=1e-15)
    with pytest.raises(DegenerateNormalizationError):
        projective_coeff_error(MoebiusCoeffs(0.0, 1.0, 1.0, 0.0))


def test_eval_region_grid_and_validation():
    region = EvalRegion(center=0.0, radius=0.25, grid_points=64)
    grid = region.grid()
    assert np.all(np.abs(grid) <= 0.25 + 1e-15)
    # square grid masked to the inscribed disk: about pi/4 of the mesh survives
    assert 0.70 * 64 * 64 < grid.size < 0.80 * 64 * 64
    assert region.pole_guard == pytest.approx(2.5e-4)
    with pytest.raises(ValueError):
        EvalRegion(radius=0.0)
    with pytest.raises(ValueError):
        EvalRegion(grid_points=1)


def test_identity_distance_frozen_values():
    # reference values frozen from the initial implementation; these pin the
    # exact grid layout (row-major 64x64 mesh masked to the disk)
    region = EvalRegion(center=0.0, radius=0.25, grid_points=64)
    sup, skipped = identity_distance(MoebiusCoeffs(1.0, 0.0, -100.0, 1.0), region)
    assert skipped == 0
    assert sup == pytest.approx(0.25936604025477983, rel=1e-13)
    sup2, _ = identity_distance(MoebiusCoeffs(1.0, 0.0, -2.0, 1.0), region)
    assert sup2 == pytest.approx(0.23473428926806886, rel=1e-13)


def test_identity_distance_of_identity_is_zero():
    sup, skipped = identity_distance(_IDENTITY, EvalRegion())
    assert sup == 0.0 and skipped == 0


def test_identity_distance_pole_guard_skips_points():
    # map with pole at the center: the guard must discard nearby grid points
    region = EvalRegion(center=0.0, radius=0.25, grid_points=65, pole_guard=0.02)
    m = MoebiusCoeffs(0.0, 1.0, 1.0, 0.0)  # z -> 1/z, pole at 0
    _sup, skipped = identity_distance(m, region)
    assert skipped > 0
    with pytest.raises(AllPointsSkippedError):
        identity_distance(m, EvalRegion(center=0.0, radius=0.25, pole_guard=10.0))


def test_perturbed_parabolic_step_layout():
    # the step matrix of PerturbationSequences.step_maps and compose_chain
    rho = cmath.exp(0.3j)
    eps_sq = 0.01 + 0.002j
    m = MoebiusCoeffs(rho - eps_sq, eps_sq, -1.0, 1.0)
    assert m.det() == pytest.approx(rho)
    # the matrix must act like z -> rho*z/(1-z) + eps^2
    z = 0.1 - 0.07j
    assert _apply(m, z) == pytest.approx(rho * z / (1.0 - z) + eps_sq)

