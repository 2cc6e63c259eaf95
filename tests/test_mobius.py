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
    PoleProximityError,
    compose,
    compose_chain,
    evaluate,
    identity_distance,
    perturbed_parabolic_step,
    projective_coeff_error,
    projective_distance,
    rotation_step,
)


def _random_map(rng: random.Random) -> MoebiusCoeffs:
    # keep determinants well away from 0: compose() treats heavy determinant
    # cancellation as degeneration, which is correct but not under test here
    while True:
        vals = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)]
        m = MoebiusCoeffs(*vals)
        if abs(m.det()) > 0.5:
            return m


def test_degenerate_coefficients_rejected():
    with pytest.raises(DegenerateMapError):
        MoebiusCoeffs(1.0, 2.0, 2.0, 4.0)
    with pytest.raises(ValueError):
        MoebiusCoeffs(float("nan"), 0.0, 0.0, 1.0)


def test_identity_and_pole():
    ident = MoebiusCoeffs.identity()
    assert ident.as_tuple() == (1.0, 0.0, 0.0, 1.0)
    assert ident.pole() is None
    assert MoebiusCoeffs(1.0, 0.0, -2.0, 1.0).pole() == 0.5


def test_scaled_preserves_projective_map():
    m = MoebiusCoeffs(1.5, -0.5j, 0.25, 1.0)
    scaled = m.scaled(3.0 - 1.0j)
    assert projective_distance(m, scaled) < 1e-15
    with pytest.raises(ValueError):
        m.scaled(0.0)


def test_evaluate_matches_formula_and_guards_pole():
    m = MoebiusCoeffs(2.0, 1.0, 1.0, -0.5)
    z = 0.25 + 0.1j
    assert evaluate(m, z) == (2.0 * z + 1.0) / (z - 0.5)
    with pytest.raises(PoleProximityError):
        evaluate(m, 0.5)


def test_compose_agrees_with_matrix_product():
    rng = random.Random(2024)
    for _ in range(200):
        m1 = _random_map(rng)
        m2 = _random_map(rng)
        got = compose(m1, m2)
        prod = np.array([[m1.a, m1.b], [m1.c, m1.d]]) @ np.array([[m2.a, m2.b], [m2.c, m2.d]])
        want = MoebiusCoeffs(prod[0, 0], prod[0, 1], prod[1, 0], prod[1, 1])
        assert projective_distance(got, want) < 1e-14


def test_compose_application_order():
    # compose(outer, inner) must mean outer after inner
    inner = MoebiusCoeffs(1.0, 1.0, 0.0, 1.0)   # z + 1
    outer = MoebiusCoeffs(2.0, 0.0, 0.0, 1.0)   # 2z
    both = compose(outer, inner)
    z = 0.3 + 0.2j
    assert evaluate(both, z) == pytest.approx(2.0 * (z + 1.0))


def test_compose_chain_equals_raw_matrix_fold():
    rng = random.Random(5)
    maps = [_random_map(rng) for _ in range(130)]  # crosses one renormalization
    chain = compose_chain(maps)
    acc = np.array([[maps[0].a, maps[0].b], [maps[0].c, maps[0].d]])
    for m in maps[1:]:
        acc = np.array([[m.a, m.b], [m.c, m.d]]) @ acc
        acc /= np.max(np.abs(acc))
    want = MoebiusCoeffs(acc[0, 0], acc[0, 1], acc[1, 0], acc[1, 1])
    assert projective_distance(chain, want) < 1e-12


def test_compose_chain_takes_rows_or_maps_alike():
    rng = random.Random(6)
    maps = [_random_map(rng) for _ in range(140)]
    rows = np.array([m.as_tuple() for m in maps], dtype=complex)
    from_rows, log_rows = compose_chain(rows, return_log_scale=True)
    from_maps, log_maps = compose_chain(maps, return_log_scale=True)
    assert from_rows.as_tuple() == from_maps.as_tuple()
    assert log_rows == log_maps
    with pytest.raises(ValueError):
        compose_chain(np.empty((0, 4), dtype=complex))


def test_compose_chain_log_scale_tracks_magnitude():
    # 200 copies of 3*identity: true product is 3^200 * I, far beyond overflow
    maps = [MoebiusCoeffs(3.0, 0.0, 0.0, 3.0)] * 200
    coeffs, log_scale = compose_chain(maps, return_log_scale=True)
    assert projective_coeff_error(coeffs) < 1e-13
    true_log = 200 * math.log(3.0)
    got_log = log_scale + math.log(max(abs(v) for v in coeffs.as_tuple()))
    assert got_log == pytest.approx(true_log, rel=1e-12)


def test_compose_chain_requires_maps():
    with pytest.raises(ValueError):
        compose_chain([])


def test_projective_distance_properties():
    rng = random.Random(9)
    for _ in range(50):
        m = _random_map(rng)
        n = _random_map(rng)
        assert projective_distance(m, m) < 1e-15
        assert projective_distance(m, m.scaled(cmath.exp(1.7j) * 5.0)) < 1e-14
        assert projective_distance(m, n) == pytest.approx(projective_distance(n, m), abs=1e-14)


def test_projective_coeff_error_identity_and_normalization_guard():
    assert projective_coeff_error(MoebiusCoeffs.identity()) == 0.0
    assert projective_coeff_error(MoebiusCoeffs(1.0, 0.0, 0.0, 1.0).scaled(2.0j)) == 0.0
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
    sup, skipped = identity_distance(MoebiusCoeffs.identity(), EvalRegion())
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
    rho = cmath.exp(0.3j)
    eps_sq = 0.01 + 0.002j
    m = perturbed_parabolic_step(rho, eps_sq)
    assert m.as_tuple() == (rho - eps_sq, eps_sq, -1.0, 1.0)
    assert m.det() == pytest.approx(rho)
    # the matrix must act like z -> rho*z/(1-z) + eps^2
    z = 0.1 - 0.07j
    assert evaluate(m, z) == pytest.approx(rho * z / (1.0 - z) + eps_sq)


def test_rotation_step_is_eps_free():
    m = rotation_step(0.125)
    assert m.b == 0.0
    assert m.a == pytest.approx(cmath.exp(2j * math.pi * 0.125))
