"""``WorkerPool``: a pool that starts no process.

Propagation and the stability trials run serially in the calling
process (DESIGN.md §4 records the measurements that retired the
process fan-out). This class remains so callers written against the
old pool keep working: it validates ``workers``, reports zeroed
``stats`` and closes as a context manager, and every function that
accepts a ``pool`` ignores it.
"""

from __future__ import annotations


class WorkerPool:
    """A pool handle with nothing behind it (see the module docstring)."""

    __slots__ = ("workers", "stats")

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.stats = {"spawns": 0, "respawns": 0, "broadcasts": 0}

    def close(self) -> None:
        """Nothing to release."""

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
