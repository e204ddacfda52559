"""The content-keyed artifact store behind ``repro-serve``.

An :class:`ArtifactStore` memoises ``rank_all``-style results per
``(world content, semantic config, metric, country)``. Two layers:

* an in-memory map of :class:`~repro.core.ranking.Ranking` objects —
  the warm path a long-lived daemon answers from;
* optionally, a :class:`repro.resilience.checkpoint.Checkpoint` file,
  so precomputed sweeps survive restarts: a store opened on the same
  path under the same key replays every banked ranking instead of
  recomputing it.

Key derivation — the cache-coherence invariant (DESIGN.md §9):

* the world contributes its :meth:`~repro.topology.world.World.fingerprint`
  — a digest of graph/countries/collectors *content*, never the
  catalog name. A regenerated ``name@seed`` world whose content
  changed therefore misses the store instead of serving stale
  rankings.
* the config contributes exactly the
  :data:`repro.resilience.checkpoint.SEMANTIC_KNOBS` — the knobs that
  shape ranking values. ``workers``, ``trace`` and ``faults`` are
  excluded: they never change output bytes, so a store warmed at
  ``workers=8`` serves a ``workers=1`` daemon and vice versa.

Units inside the store are :meth:`MetricSpec.unit_key` strings, the
same stable names ``repro-rank sweep --checkpoint`` banks under.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.ranking import Ranking
from repro.core.registry import MetricSpec
from repro.obs.trace import NULL_TRACER, AnyTracer
from repro.resilience.checkpoint import (
    Checkpoint,
    config_knobs,
    ranking_from_payload,
    ranking_to_payload,
)
from repro.topology.world import World


def store_key(world: World, config: object) -> str:
    """The artifact-store content key for one (world, config) pair.

    Keys on :meth:`World.fingerprint` (content, not name) plus the
    semantic config knobs; ``workers`` and telemetry knobs never appear.
    """
    return f"serve/world={world.fingerprint()}/{config_knobs(config)}"


class ArtifactStore:
    """A content-keyed ranking store with optional persistence.

    ``path=None`` keeps the store purely in-memory. With a path, the
    store is backed by the resilience :class:`Checkpoint` format:
    every :meth:`put` is appended (and fsynced) immediately, and a
    reopened store under the same key resumes every banked unit —
    ``persisted`` says how many. ``hits``/``misses`` mirror the
    ``serve.store.*`` counters.
    """

    def __init__(
        self,
        key: str,
        path: str | Path | None = None,
        tracer: AnyTracer = NULL_TRACER,
        resume: bool = True,
    ) -> None:
        self.key = key
        self._tracer = tracer
        self._memory: dict[str, Ranking] = {}
        self._checkpoint: Checkpoint | None = None
        self._resumed = 0
        if path is not None:
            self._checkpoint = Checkpoint.open(path, key, resume=resume)
            self._resumed = self._checkpoint.loaded
        self.hits = 0
        self.misses = 0

    @property
    def persisted(self) -> int:
        """How many banked units the backing checkpoint resumed from
        disk at open time (0 for an in-memory store)."""
        return self._resumed

    def get(self, spec: MetricSpec, country: str | None) -> Ranking | None:
        """The stored ranking for one unit, or ``None`` on a miss.

        Checks memory first, then the backing checkpoint (a disk hit
        is promoted into memory, so it deserializes once per process).
        """
        unit = spec.unit_key(country)
        ranking = self._memory.get(unit)
        if ranking is None and self._checkpoint is not None:
            payload = self._checkpoint.get(unit)
            if payload is not None:
                ranking = ranking_from_payload(payload)  # type: ignore[arg-type]
                self._memory[unit] = ranking
        if ranking is None:
            self.misses += 1
            self._tracer.metrics.counter("serve.store.misses").inc()
            return None
        self.hits += 1
        self._tracer.metrics.counter("serve.store.hits").inc()
        return ranking

    def put(self, spec: MetricSpec, country: str | None, ranking: Ranking) -> None:
        """Bank one computed ranking (idempotent: a unit already on
        disk is not appended twice)."""
        unit = spec.unit_key(country)
        self._memory[unit] = ranking
        if self._checkpoint is not None and self._checkpoint.get(unit) is None:
            self._checkpoint.put(unit, ranking_to_payload(ranking))

    def __len__(self) -> int:
        return len(self._memory)

    def close(self) -> None:
        if self._checkpoint is not None:
            self._checkpoint.close()

    def __enter__(self) -> "ArtifactStore":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()
