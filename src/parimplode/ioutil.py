"""Shared output helpers: number formatting, atomic CSV writes, worker count."""
from __future__ import annotations

import os
import tempfile
from collections.abc import Iterable, Sequence


def fmt17(x) -> str:
    """17 significant digits, '.' decimal separator, enough to round-trip."""
    return format(float(x), ".17g")


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory plus os.replace.

    Readers never observe a partially written file; interrupted runs leave
    the previous version intact.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_csv(path: str, header: str, rows: Iterable[Sequence[str]]) -> None:
    """Fixed-header CSV with '\\n' line endings, written atomically."""
    lines = [header]
    lines.extend(",".join(row) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def worker_count(override: int | None = None, default: int | None = None) -> int:
    """Effective parallelism: explicit override, else PARIMPLODE_THREADS,
    else ``default``, else the scheduler's view of available CPUs."""
    if override is not None:
        return max(1, int(override))
    env = os.environ.get("PARIMPLODE_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"PARIMPLODE_THREADS must be an integer, got {env!r}") from None
    if default is not None:
        return max(1, int(default))
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)
