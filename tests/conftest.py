"""Fixtures shared by the tests of the worker-process rung map."""
import os

import pytest


@pytest.fixture
def two_cpus(monkeypatch):
    """The default worker count reads two CPUs, whatever the machine has."""
    monkeypatch.delenv("PARIMPLODE_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def watch_pids(tmp_path, monkeypatch):
    """``watch(module, name)`` wraps ``module.name`` to log the pid of every
    call and returns ``ran()``, which says where the calls since the last
    ``ran()`` were made: "parent", "workers", "both" or "none".

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
