"""Ranking-as-a-service: one world loaded once, queries answered warm.

The serving layer turns the batch pipeline into a long-lived daemon
(``repro-serve`` / ``repro-rank serve``) with three layers:

* :class:`~repro.resilience.ArtifactStore` (re-exported here) — the
  one ranking store, optionally persisted in the checkpoint format so
  banked rankings survive restarts; a sweep's file warms it;
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

from repro.resilience.checkpoint import ArtifactStore, store_key
from repro.serve.http import RankingServer, ServeHandler
from repro.serve.service import QueryError, RankingService

__all__ = [
    "ArtifactStore",
    "QueryError",
    "RankingServer",
    "RankingService",
    "ServeHandler",
    "store_key",
]
