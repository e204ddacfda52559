"""Ranking-as-a-service: one world loaded once, queries answered warm.

The serving layer turns the batch pipeline into a long-lived daemon
(``repro-serve`` / ``repro-rank serve``) with three layers:

* :mod:`repro.serve.store` — the content-keyed :class:`ArtifactStore`
  memoising rankings per ``(world content, semantic config, metric,
  country)``, optionally persisted in the resilience checkpoint
  format so precomputed sweeps survive restarts;
* :mod:`repro.serve.service` — :class:`RankingService`, the pure
  application API over one :class:`~repro.core.pipeline.PipelineResult`
  (validation, store lookup, on-demand registry compute, ``serve.*``
  telemetry) — unit-testable without sockets;
* :mod:`repro.serve.http` — the thin stdlib
  :class:`~http.server.ThreadingHTTPServer` presentation
  (``/rank``, ``/report``, ``/case-study``, ``/healthz``).

Coherence invariant (DESIGN.md §9): the store keys on world *content*
(:meth:`~repro.topology.world.World.fingerprint`) and the semantic
config knobs only — a regenerated world with different content misses
the cache; the ignored ``workers`` and telemetry knobs never cause one.
"""

from repro.serve.http import RankingServer, ServeHandler
from repro.serve.service import QueryError, RankingService
from repro.serve.store import ArtifactStore, store_key

__all__ = [
    "ArtifactStore",
    "QueryError",
    "RankingServer",
    "RankingService",
    "ServeHandler",
    "store_key",
]
