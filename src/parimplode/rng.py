"""Counter-based pseudorandom generator for reproducible ensembles.

Every variate is a pure function of (seed, trial, k): the 64-bit output
word is ``mix(mix(mix(seed + GOLDEN) ^ trial) ^ k)`` where ``mix`` is the
splitmix64 finalizer.  There is no stream state, so trials and steps can
be generated in any order, on any number of workers, with bit-identical
results.  Golden vectors are pinned in the test suite; changing the
algorithm is a breaking change.
"""
from __future__ import annotations

import numpy as np

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)
_U53 = 2.0 ** -53


def _mix(x):
    # the splitmix64 finalizer; the caller ignores overflow, which wraps
    z = (x ^ (x >> _S30)) * _MUL1
    z = (z ^ (z >> _S27)) * _MUL2
    return z ^ (z >> _S31)


def words(seed: int, trial, k):
    """64-bit output words for broadcastable trial/k indices.

    ``trial`` and ``k`` may be scalars or arrays; they are broadcast
    against each other (e.g. trial[:, None] with k[None, :] yields a
    matrix of words).  A seed outside 0..2**64-1 raises ValueError.
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed: must be in 0..2**64-1, got {seed}")
    trial = np.asarray(trial, dtype=np.uint64)
    k = np.asarray(k, dtype=np.uint64)
    with np.errstate(over="ignore"):
        h = _mix(np.uint64(seed) + GOLDEN)
        h = _mix(h ^ trial)
        return _mix(h ^ k)


def uniform01(seed: int, trial, k):
    """Uniform variates in [0, 1) with full 53-bit mantissas."""
    return (words(seed, trial, k) >> np.uint64(11)).astype(np.float64) * _U53


def uniform_symmetric(seed: int, trial, k, bound: float = 1.0):
    """Uniform variates in [-bound, bound] (mean zero)."""
    return bound * (2.0 * uniform01(seed, trial, k) - 1.0)
