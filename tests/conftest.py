"""Fixtures shared across test modules."""
import os

import numpy as np
import pytest

from parimplode import QRSTriple, closed_form_T_array


def reference_plain(seqs):
    """q_0..q_{N+1}, r_0..r_{N+1} and prod_{j<=k} rho_j for k = 0..N, the
    whole trajectory of the binary64 recurrence in increment form, one step
    at a time over numpy scalars.

    The plain kernel keeps only the tail at N, which the tests hold to this
    loop bit for bit; tests that read q_k or r_k for k < N read it here.
    """
    N = seqs.N
    rho = seqs.rho
    es = seqs.eps_sq
    q = np.zeros(N + 2, dtype=complex)
    r = np.zeros(N + 2, dtype=complex)
    prod = np.ones(N + 1, dtype=complex)
    q[1] = 1.0
    r[0] = 1.0
    r[1] = 1.0
    dq, dr = 1.0 + 0j, 0j  # the increments x_1 - x_0
    for k in range(1, N + 1):
        dq = rho[k] * dq - es[k] * q[k]
        dr = rho[k] * dr - es[k] * r[k]
        q[k + 1] = q[k] + dq
        r[k + 1] = r[k] + dr
        prod[k] = prod[k - 1] * rho[k]
    return QRSTriple(q=q, r=r, rho_cumprod=prod)


@pytest.fixture
def difference_formula():
    """``formula(seqs, triple, k)``, the right-hand side of the exact
    perturbation expansion q_k - T_k = sum_{j=1}^{k-1} (a_j q_j - b_j q_{j-1}) T_{k-j}
    for 2 <= k <= N+1, with T from ``closed_form_T_array``."""
    def formula(seqs, triple, k):
        j = np.arange(1, k)
        T = closed_form_T_array(seqs.N)
        return complex(np.sum((seqs.a[j] * triple.q[j] - seqs.b[j] * triple.q[j - 1]) * T[k - j]))

    return formula


@pytest.fixture
def two_cpus(monkeypatch):
    """The default worker count reads two CPUs, whatever the machine has."""
    monkeypatch.delenv("PARIMPLODE_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def watch_pids(tmp_path, monkeypatch):
    """``watch(module, name)`` wraps ``module.name`` to log the pid of every
    call and returns ``ran()``, which says where the calls since the last
    ``ran()`` were made: "parent", "workers", "both" or "none".  A pooled
    map runs one share in the calling process, so it reads "both": the
    parent and at least one forked child.

    The log is a file, so calls made on forked worker processes show in it,
    where a set in memory would be each worker's own copy.
    """
    def watch(module, name):
        log = tmp_path / f"{name}.pids"
        real = getattr(module, name)

        def recording(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real(*args, **kwargs)

        def ran():
            pids = {int(p) for p in log.read_text().split()} if log.exists() else set()
            log.unlink(missing_ok=True)
            if not pids:
                return "none"
            if os.getpid() not in pids:
                return "workers"
            return "parent" if len(pids) == 1 else "both"

        monkeypatch.setattr(module, name, recording)
        return ran

    return watch
