"""Coefficient-matrix layer: composition oracle, projective metrics, grids."""
import cmath
import math
import random

import numpy as np
import pytest

from parimplode import (
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


def test_eval_region_grid_is_the_fixed_read_only_disk_mesh():
    xs = np.linspace(-0.25, 0.25, 64)
    X, Y = np.meshgrid(xs, xs)
    mesh = (X + 1j * Y).ravel()
    expected = mesh[np.abs(mesh) <= 0.25]
    grid = EvalRegion().grid()
    assert grid.size == expected.size == 3096
    assert grid.tobytes() == expected.tobytes()  # bit for bit, row-major (y, x)
    assert grid is EvalRegion().grid()  # built once, at import
    with pytest.raises(ValueError):
        grid[0] = 0.0
    with pytest.raises(TypeError):
        EvalRegion(radius=0.1)


def test_identity_distance_frozen_values():
    # reference values frozen from the initial implementation; these pin the
    # exact grid layout (row-major 64x64 mesh masked to the disk)
    region = EvalRegion()
    sup, skipped = identity_distance(MoebiusCoeffs(1.0, 0.0, -100.0, 1.0), region)
    assert skipped == 0
    assert sup == pytest.approx(0.25936604025477983, rel=1e-13)
    sup2, _ = identity_distance(MoebiusCoeffs(1.0, 0.0, -2.0, 1.0), region)
    assert sup2 == pytest.approx(0.23473428926806886, rel=1e-13)


def test_identity_distance_of_identity_is_zero():
    sup, skipped = identity_distance(_IDENTITY, EvalRegion())
    assert sup == 0.0 and skipped == 0


def test_identity_distance_pole_guard_skips_points():
    """The guard drops the grid point on the pole and nothing else.

    Grid points are 0.5/63, about 0.0079, apart and the guard is 2.5e-4, so
    it can remove at most one of the 3,096 points: no map can empty the
    grid, and there is no all-points-skipped failure left to test.
    """
    region = EvalRegion()
    p = complex(region.grid()[1000])
    on_point = MoebiusCoeffs(0.0, 1.0, 1.0, -p)  # z -> 1/(z - p), pole on a grid point
    assert on_point.pole() == p
    sup, skipped = identity_distance(on_point, region)
    assert skipped == 1 and math.isfinite(sup)
    # 0 lies between grid points (the mesh has an even number of columns)
    _sup, skipped = identity_distance(MoebiusCoeffs(0.0, 1.0, 1.0, 0.0), region)
    assert skipped == 0


def _numpy_projective_distance(m1, m2):
    # projective_distance as it was, on numpy arrays, norms and vdot
    v1 = np.array(m1.as_tuple(), dtype=complex)
    v2 = np.array(m2.as_tuple(), dtype=complex)
    v1 /= np.linalg.norm(v1)
    v2 /= np.linalg.norm(v2)
    phase = np.vdot(v2, v1)
    mag = abs(phase)
    if mag == 0:
        return math.sqrt(2.0)
    return float(np.linalg.norm(v1 - (phase / mag) * v2))


def test_projective_distance_matches_the_numpy_form():
    # the scalar form rounds in another order (numpy's products fuse a
    # multiply and an add), so it is held to a few ulps of the unit-norm
    # difference, 1e-15 absolute, on random and on nearly equal pairs
    rng = random.Random(11)
    for i in range(2000):
        m1 = _random_map(rng)
        if i % 2:
            turn = cmath.exp(1j * rng.uniform(0, 2 * math.pi)) * rng.uniform(0.1, 10)
            m2 = MoebiusCoeffs(*(x * turn * (1 + 1e-13 * rng.uniform(-1, 1))
                                 for x in m1.as_tuple()))
        else:
            m2 = _random_map(rng)
        assert projective_distance(m1, m2) == pytest.approx(_numpy_projective_distance(m1, m2),
                                                            rel=0, abs=1e-15)


def _identity_distance_with_guard_pass(map_):
    # identity_distance as it was: the guard's pass over the grid at every finite pole
    Z = EvalRegion().grid()
    pole = map_.pole()
    skipped = 0
    if pole is not None:
        keep = np.abs(Z - pole) >= 2.5e-4
        skipped = int(np.count_nonzero(~keep))
        Z = Z[keep]
    W = (map_.a * Z + map_.b) / (map_.c * Z + map_.d)
    return float(np.max(np.abs(W - Z))), skipped


def test_identity_distance_skips_the_guard_pass_only_past_its_margin(monkeypatch):
    passes = []  # the guard's pass counts its skipped points once
    count_nonzero = np.count_nonzero
    monkeypatch.setattr(np, "count_nonzero", lambda a: passes.append(a.size) or count_nonzero(a))
    grid = EvalRegion().grid()
    outer = complex(grid[np.abs(grid).argmax()])  # |z| = 0.24927, the largest
    unit = outer / abs(outer)
    margin = 0.25 + 2.5e-4 + 1e-12  # past this |pole|, no point is within 2.5e-4
    poles = {
        # inside the margin, and 2e-4 beyond the outermost point, which is skipped
        outer + 2e-4 * unit: 1,
        margin * (1 - 1e-15) * unit: 0,
        margin * (1 + 1e-15) * unit: 0,
        -margin * 2 * unit: 0,
        25600 + 6.3j: 0,  # near A2's pole at N = 12800 with --extended
    }
    for pole, skipped in poles.items():
        for map_ in (MoebiusCoeffs(0.0, 1.0, 1.0, -pole),  # z -> 1/(z - pole)
                     MoebiusCoeffs(1.0 + 1e-5j, 1e-6, -1.0 / pole, 1.0)):
            passes.clear()
            got = identity_distance(map_, EvalRegion())
            assert passes == ([grid.size] if abs(pole) < margin else []), pole
            want = _identity_distance_with_guard_pass(map_)
            assert got[1] == want[1] == skipped, pole
            assert np.array(got[0]).tobytes() == np.array(want[0]).tobytes(), pole


def test_perturbed_parabolic_step_layout():
    # the step matrix of PerturbationSequences.step_maps and compose_chain
    rho = cmath.exp(0.3j)
    eps_sq = 0.01 + 0.002j
    m = MoebiusCoeffs(rho - eps_sq, eps_sq, -1.0, 1.0)
    assert m.det() == pytest.approx(rho)
    # the matrix must act like z -> rho*z/(1-z) + eps^2
    z = 0.1 - 0.07j
    assert _apply(m, z) == pytest.approx(rho * z / (1.0 - z) + eps_sq)

