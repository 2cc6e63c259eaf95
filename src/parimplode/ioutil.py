"""Shared helpers: the CSV value format, atomic writes, worker count, rung map.

Every CSV the package writes leaves through ``write_csv``, and
``row_format`` is the one place that formats its values: an integer as
``str`` writes it, a float at 17 significant digits, enough to round-trip
a binary64.
"""
from __future__ import annotations

import contextlib
import os
import pickle
import signal
from collections.abc import Iterable, Sequence


def row_format(columns: str) -> str:
    """A %-format for one CSV row, a letter a column: 'd' writes an integer
    as ``str`` does, 'g' a float at 17 significant digits ('.' decimal
    separator).  A 'd' column must hold an int: '%d' truncates a float."""
    return ",".join({"d": "%d", "g": "%.17g"}[c] for c in columns)


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory plus os.replace.

    Readers never observe a partially written file; interrupted runs leave
    the previous version intact.  The file gets the mode a plain
    ``open(path, "w")`` gives a new file, 0o666 less the umask, whatever
    mode a file it replaces had.  An OSError names ``path``, not the temp
    file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        name = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
        # O_EXCL never opens a file that exists
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp = name
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def write_csv(path: str, header: str, columns: str, rows: Iterable[tuple]) -> None:
    """Fixed-header CSV with '\\n' line endings, written atomically.  Each
    row is a tuple of raw values, formatted by ``row_format(columns)``."""
    fmt = row_format(columns)
    lines = [header]
    lines.extend(fmt % row for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def requested_workers(override: int | None = None) -> int | None:
    """The number of processes asked for, the caller included: explicit
    override (``--threads``), else PARIMPLODE_THREADS, else None.  An
    override or PARIMPLODE_THREADS below 1 raises ValueError."""
    if override is not None:
        if override < 1:
            raise ValueError(f"threads: must be >= 1, got {override}")
        return int(override)
    env = os.environ.get("PARIMPLODE_THREADS")
    if env is None:
        return None
    try:
        count = int(env)
    except ValueError:
        raise ValueError(f"PARIMPLODE_THREADS must be an integer, got {env!r}") from None
    if count < 1:
        raise ValueError(f"PARIMPLODE_THREADS must be >= 1, got {env!r}")
    return count


def worker_count(override: int | None = None) -> int:
    """Number of processes for ``map_rungs``, the caller included: the count
    ``requested_workers`` reads, else the scheduler's view of available CPUs."""
    count = requested_workers(override)
    if count is not None:
        return count
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def _shares(weights: Sequence[float], workers: int) -> list[list[int]]:
    """Item indices split into ``workers`` shares: largest weight first, each
    to the least-loaded share (the lowest-numbered on a tie)."""
    shares: list[list[int]] = [[] for _ in range(workers)]
    loads = [0] * workers
    for i in sorted(range(len(weights)), key=lambda i: -weights[i]):
        s = loads.index(min(loads))
        shares[s].append(i)
        loads[s] += weights[i]
    return shares


def _reap(pid: int, status: dict) -> None:
    """Kill and reap a child whose exit status is not yet in ``status``."""
    if pid not in status:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        status[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _run_share(fn, items, share) -> list:
    """``fn`` over a share, one pickled ``(ok, value or exception)`` per item.
    A result that does not pickle becomes that item's error."""
    out = []
    for i in share:
        try:
            result = (True, fn(items[i]))
        except Exception as exc:
            result = (False, exc)
        try:
            out.append(pickle.dumps(result))
        except Exception as exc:
            out.append(pickle.dumps((False, RuntimeError(
                f"the result of item {i} does not pickle: {type(exc).__name__}: {exc}"))))
    return out


def map_rungs(fn, items, workers: int, weight=None) -> list:
    """``[fn(item) for item in items]``, on up to ``workers`` processes.

    With one worker or one item it runs inline.  Otherwise it cuts the items
    into min(workers, len(items)) fixed shares, filled largest first, each
    item to the least-loaded share, by ``weight(item)``: its steps, by
    default the item itself (a rung's N).  It forks one child, with one pipe
    back, for every share but the first, then runs the first share, which
    holds the largest item, itself.  So the calling process counts as a
    worker, and its memory peak is that of the largest item, as in the
    inline loop.  Either side keeps one pickled ``(ok, value or exception)``
    per item of its share.  A child writes its list to its pipe and leaves
    by ``os._exit``: it runs none of the parent's exit handlers and never
    flushes its copy of the parent's buffered output.  The parent then
    reads every pipe to EOF and reaps every child.  Results come back in
    item order, and the exception of the lowest failing item is raised, as
    the inline loop raises it.  A child that dies without its results
    raises RuntimeError naming its pid and exit status.  An Exception in the
    parent's own share is that item's result, as in a child; a
    KeyboardInterrupt there, or any exception while it reads a pipe,
    interrupts the map, and the parent kills and reaps the children it has
    not reaped yet, so none outlives the call.

    ``fn`` need not pickle, but its results and exceptions must, wherever
    the item ran.  Forked workers inherit the loaded package instead of
    importing it again (about 0.18 s each).  On 2 CPUs a map of eight
    trivial items on two workers takes about 3 ms.
    """
    items = list(items)
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    shares = _shares([item if weight is None else weight(item) for item in items], workers)
    blobs, status = {}, {}
    with contextlib.ExitStack() as stack:
        children = []
        for share in shares[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    with open(w, "wb") as fh:
                        pickle.dump(_run_share(fn, items, share), fh)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            stack.callback(_reap, pid, status)
            children.append((pid, share, stack.enter_context(open(r, "rb"))))
        blobs.update(zip(shares[0], _run_share(fn, items, shares[0])))
        for pid, share, pipe in children:
            data = pipe.read()
            pipe.close()
            status[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if status[pid] == 0:
                blobs.update(zip(share, pickle.loads(data)))
    for pid, code in status.items():
        if code != 0:
            raise RuntimeError(f"worker process {pid} died with exit status {code}")
    results = [pickle.loads(blobs[i]) for i in range(len(items))]
    for ok, value in results:
        if not ok:
            raise value
    return [value for _, value in results]
