"""The fork-and-pipe rung map: shares, results, failures and the children it leaves.

Every test runs at most 3 workers and ends with no child process left.
"""
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import parimplode
from parimplode.ioutil import _shares, map_rungs

_KILL = os.kill  # the real one, for children that kill themselves


@pytest.fixture
def calls(monkeypatch):
    """The parent's os.kill and os.waitpid calls, in order, as (name, pid)."""
    log = []
    real_wait = os.waitpid

    def kill(pid, sig):
        log.append(("kill", pid))
        return _KILL(pid, sig)

    def waitpid(pid, options):
        log.append(("wait", pid))
        return real_wait(pid, options)

    monkeypatch.setattr(os, "kill", kill)
    monkeypatch.setattr(os, "waitpid", waitpid)
    return log


@pytest.fixture(autouse=True)
def no_child_left():
    """Each test ends with no child process, running or unreaped; a map that
    hangs fails at the 60 s alarm instead of blocking the suite."""
    def timeout(signum, frame):
        raise TimeoutError("map_rungs did not return")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _logging(log: Path, fn):
    """``fn``, appending "item pid" to ``log`` on every call."""
    def run(item):
        with open(log, "a") as fh:
            fh.write(f"{item} {os.getpid()}\n")
        return fn(item)
    return run


def _pids(log: Path) -> dict:
    """Item -> pid of the process that ran it, from a ``_logging`` log."""
    return {int(item): int(pid) for item, pid in map(str.split, log.read_text().splitlines())}


def test_shares_take_the_largest_item_first_to_the_least_loaded_share():
    assert _shares([10, 20, 30, 40, 50, 60], 2) == [[5, 2, 1], [4, 3, 0]]
    # a doubling ladder: the top rung alone against all the rungs below it
    assert _shares([100 * 2**k for k in range(8)], 2) == [[7], [6, 5, 4, 3, 2, 1, 0]]
    assert _shares([5, 5, 5], 3) == [[0], [1], [2]]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_map_rungs_returns_results_in_item_order(workers, tmp_path, calls):
    log = tmp_path / "pids"
    items = [16, 512, 64, 256, 100]
    assert map_rungs(_logging(log, lambda n: n * n), items, workers) == [n * n for n in items]
    pids = set(_pids(log).values())
    assert len(pids) == workers
    assert os.getpid() in pids  # the caller runs a share of its own
    assert not [name for name, _ in calls if name == "kill"]


def test_weight_sets_the_shares(tmp_path):
    log = tmp_path / "pids"
    items = [(16, 0, 50), (16, 50, 100), (512, 0, 50), (512, 50, 100)]
    out = map_rungs(_logging(log, lambda s: s[0]), items, 2, weight=lambda s: s[0] * (s[2] - s[1]))
    assert out == [16, 16, 512, 512]
    pids = dict(line.rsplit(" ", 1) for line in log.read_text().splitlines())
    # each share takes one slice at N = 512 and one at N = 16
    assert pids["(512, 0, 50)"] == pids["(16, 0, 50)"]
    assert pids["(512, 50, 100)"] == pids["(16, 50, 100)"] != pids["(512, 0, 50)"]


def test_the_lowest_failing_item_is_raised(tmp_path, calls):
    # the shares are [60, 30, 20], run by the caller, and [50, 40, 10], by the
    # child; the lowest failure is the caller's, then the child's
    log = tmp_path / "pids"
    for failing in ((20, 50), (10, 30)):
        def fn(n):
            if n in failing:
                raise ValueError(f"bad {n}")
            return n

        with pytest.raises(ValueError, match=f"^bad {min(failing)}$"):
            map_rungs(_logging(log, fn), [10, 20, 30, 40, 50, 60], 2)
        pids = _pids(log)
        log.unlink()
        assert len(pids) == 6  # every item ran, in two shares
        assert pids[50] != os.getpid()
        assert {pids[n] for n in failing} == {os.getpid(), pids[50]}  # one on each side
    assert not [name for name, _ in calls if name == "kill"]


def test_a_killed_child_raises_naming_its_pid_and_status(tmp_path, calls):
    log = tmp_path / "pids"

    def fn(n):
        if n == 20:  # the second item of its share: 30, then 20
            _KILL(os.getpid(), signal.SIGKILL)
        return n

    with pytest.raises(RuntimeError) as err:
        map_rungs(_logging(log, fn), [10, 20, 30, 40], 2)
    pid = _pids(log)[20]
    assert str(err.value) == f"worker process {pid} died with exit status -{int(signal.SIGKILL)}"
    assert ("wait", pid) in calls
    assert not [name for name, _ in calls if name == "kill"]


def _returns_a_lambda(n):
    return lambda: n


def _returns_a_generator(n):
    return (n for _ in range(n))


def _raises_with_a_lambda(n):
    raise ValueError(lambda: n)


@pytest.mark.parametrize("make", [_returns_a_lambda, _returns_a_generator, _raises_with_a_lambda])
def test_an_unpicklable_result_raises(make, tmp_path, calls):
    # the shares are [3], run by the caller, and [2, 1], by the child; a result
    # the caller keeps is pickled too, so it fails as it would in a child
    log = tmp_path / "pids"
    items = [3, 1, 2]
    for bad in (3, 1):
        def fn(n):
            return make(n) if n == bad else n

        with pytest.raises(RuntimeError, match=rf"^the result of item {items.index(bad)} does not pickle: "):
            map_rungs(_logging(log, fn), items, 2)
        assert (_pids(log)[bad] == os.getpid()) == (bad == 3)
        log.unlink()
    assert not [name for name, _ in calls if name == "kill"]


def test_an_interrupted_parent_kills_only_the_children_it_has_not_reaped(tmp_path, calls):
    # the caller's item 40 returns at once; the child of item 30 does too and
    # is reaped; the child of item 10 sleeps, and the alarm interrupts the
    # parent while it reads that pipe
    log = tmp_path / "pids"

    def fn(n):
        if n == 10:
            time.sleep(60)
        return n

    signal.setitimer(signal.ITIMER_REAL, 0.5)
    try:
        with pytest.raises(TimeoutError):
            map_rungs(_logging(log, fn), [40, 30, 10], 3)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    pids = _pids(log)
    assert pids[40] == os.getpid()
    assert calls == [("wait", pids[30]), ("kill", pids[10]), ("wait", pids[10])]


def test_an_interrupt_in_the_callers_share_kills_every_child(tmp_path, calls):
    # every item sleeps; the alarm interrupts the caller in its own item 40,
    # and both children, still running, are killed and reaped, the last forked
    # first. A KeyboardInterrupt, unlike an Exception, is no item's result.
    log = tmp_path / "pids"

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    def fn(n):
        time.sleep(60)
        return n

    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    try:
        with pytest.raises(KeyboardInterrupt):
            map_rungs(_logging(log, fn), [40, 30, 10], 3)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    pids = _pids(log)
    assert pids[40] == os.getpid()
    assert calls == [("kill", pids[10]), ("wait", pids[10]), ("kill", pids[30]), ("wait", pids[30])]


def test_workers_beyond_the_item_count_are_not_forked(monkeypatch):
    forked = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    assert map_rungs(str, [1, 2, 3], 50) == ["1", "2", "3"]
    assert len(forked) == 2  # three shares, one of them run by the caller


def test_output_buffered_before_the_map_appears_once():
    # stdout on a pipe is block-buffered, so each child inherits "before"
    # unflushed; leaving by os._exit, no child writes it out again
    code = ("import sys\n"
            "from parimplode.ioutil import map_rungs\n"
            "sys.stdout.write('before\\n')\n"
            "assert map_rungs(str, [1, 2, 3], 3) == ['1', '2', '3']\n"
            "sys.stdout.write('after\\n')\n")
    src = str(Path(parimplode.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env, timeout=60)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == b"before\nafter\n"
