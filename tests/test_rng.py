"""Golden vectors and statistical sanity for the counter-based generator.

The output words are a frozen contract: ensembles are reproducible across
machines only if these exact values hold, so any mismatch here is a
breaking change, not a tuning knob.
"""
import numpy as np

from parimplode import rng

GOLDEN_WORDS = {
    (42, 0, 1): 0x5FF1B2D709079039,
    (42, 0, 2): 0x8FF7700B7308FDC1,
    (42, 0, 3): 0x07B5C384411EB3C1,
    (42, 1, 1): 0x7F9119BA10073FBE,
    (7, 0, 1): 0x0F298DC10B5BAA3B,
    (0, 0, 1): 0x2AEA2EC8299DF491,
}

GOLDEN_UNIFORMS = {
    (42, 0, 1): 0.3747817778576332,
    (42, 0, 2): 0.5623693492844132,
    (42, 0, 3): 0.030117244518914843,
    (42, 1, 1): 0.49830780785125917,
    (7, 0, 1): 0.059227809553120125,
    (0, 0, 1): 0.1676358450582638,
}


def test_golden_words():
    for (seed, trial, k), expected in GOLDEN_WORDS.items():
        assert int(rng.words(seed, trial, k)) == expected


def test_golden_uniforms_exact():
    for (seed, trial, k), expected in GOLDEN_UNIFORMS.items():
        assert float(rng.uniform01(seed, trial, k)) == expected


def test_words_broadcasting():
    t = np.arange(3, dtype=np.uint64)
    k = np.arange(5, dtype=np.uint64)
    grid = rng.words(9, t[:, None], k[None, :])
    assert grid.shape == (3, 5)
    assert grid.dtype == np.uint64
    # each cell must equal the scalar path
    for i in range(3):
        for j in range(5):
            assert int(grid[i, j]) == int(rng.words(9, i, j))


def test_counter_order_independence():
    ks = np.array([5, 1, 3], dtype=np.uint64)
    shuffled = rng.uniform01(11, 0, ks)
    for pos, k in enumerate([5, 1, 3]):
        assert shuffled[pos] == float(rng.uniform01(11, 0, k))


def test_uniform01_range_and_mean():
    u = rng.uniform01(123, 0, np.arange(20000, dtype=np.uint64))
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(u.var() - 1.0 / 12.0) < 0.005


def test_uniform_symmetric_bound():
    v = rng.uniform_symmetric(3, 2, np.arange(5000, dtype=np.uint64), bound=0.25)
    assert np.all(np.abs(v) <= 0.25)
    assert abs(v.mean()) < 0.01


def test_distinct_seeds_and_trials_decorrelate():
    k = np.arange(1000, dtype=np.uint64)
    a = rng.uniform01(1, 0, k)
    b = rng.uniform01(2, 0, k)
    c = rng.uniform01(1, 1, k)
    assert np.max(np.abs(a - b)) > 0.5
    assert np.max(np.abs(a - c)) > 0.5
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


def test_mix64_zero_is_not_fixed_point():
    assert int(rng._mix(np.uint64(0))) == 0  # splitmix finalizer maps 0 to 0 ...
    # ... which is why words() adds GOLDEN to the seed first
    assert int(rng.words(0, 0, 0)) != 0
