"""Shared helpers: number formatting, atomic CSV writes, worker count, rung map."""
from __future__ import annotations

import contextlib
import os
import tempfile
from collections.abc import Iterable, Sequence


def fmt17(x) -> str:
    """17 significant digits, '.' decimal separator, enough to round-trip."""
    return format(float(x), ".17g")


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory plus os.replace.

    Readers never observe a partially written file; interrupted runs leave
    the previous version intact.  An OSError names ``path``, not the temp
    file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
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


def write_csv(path: str, header: str, rows: Iterable[Sequence[str]]) -> None:
    """Fixed-header CSV with '\\n' line endings, written atomically."""
    lines = [header]
    lines.extend(",".join(row) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def worker_count(override: int | None = None, default: int | None = None) -> int:
    """Number of worker processes for ``map_rungs``: explicit override
    (``--threads``), else PARIMPLODE_THREADS, else ``default``, else the
    scheduler's view of available CPUs.  An override or PARIMPLODE_THREADS
    below 1 raises ValueError."""
    if override is not None:
        if override < 1:
            raise ValueError(f"threads: must be >= 1, got {override}")
        return int(override)
    env = os.environ.get("PARIMPLODE_THREADS")
    if env is not None:
        try:
            count = int(env)
        except ValueError:
            raise ValueError(f"PARIMPLODE_THREADS must be an integer, got {env!r}") from None
        if count < 1:
            raise ValueError(f"PARIMPLODE_THREADS must be >= 1, got {env!r}")
        return count
    if default is not None:
        return max(1, int(default))
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def map_rungs(fn, ns, workers: int) -> list:
    """``[fn(n) for n in ns]``, on up to ``workers`` forked worker processes.

    With one worker or one rung it runs inline.  The pool takes the largest
    N first (the top rung of a doubling ladder is half its steps), returns
    the results in ladder order and raises the exception of the lowest
    failing rung, as the inline loop does.  ``fn`` and its results must
    pickle, so callers bind a module-level function with functools.partial.
    Forked workers inherit the loaded package instead of importing it again
    (about 0.18 s each); multiprocessing is imported here, so importing the
    package does not load it.
    """
    ns = list(ns)
    workers = min(workers, len(ns))
    if workers <= 1:
        return [fn(n) for n in ns]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = {n: pool.submit(fn, n) for n in sorted(set(ns), reverse=True)}
        try:
            return [futures[n].result() for n in ns]
        finally:
            for future in futures.values():
                future.cancel()
