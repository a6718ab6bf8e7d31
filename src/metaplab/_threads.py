"""Worker-pool helper; METAPLAB_THREADS caps the parallelism."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

__all__ = ["max_workers", "thread_map"]


def max_workers() -> int:
    """METAPLAB_THREADS if set (at most one per CPU), else up to 4."""
    cpus = os.cpu_count() or 1
    env = os.environ.get("METAPLAB_THREADS")
    if env is not None:
        try:
            return max(1, min(int(env), cpus))
        except ValueError:
            return 1
    return min(4, cpus)


def thread_map(fn, items):
    """Map over independent items; results keep the input order."""
    items = list(items)
    workers = max_workers()
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
