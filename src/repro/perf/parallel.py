"""Deterministic process fan-out for the pipeline's two heavy loops.

Two fan-out points, both chunked over a worker pool:

* **route propagation** — ``propagate_all`` origins are independent,
  so each chunk of origins runs the same all-origin array pass the
  serial path runs (:func:`repro.bgp.propagation._route_pass`) over a
  shared adjacency snapshot;
* **stability trials** — every NDCG downsampling trial recomputes one
  metric on one VP-restricted view, independent of every other trial.

Heavy shared state (the adjacency snapshot, the view, the oracle) is
*broadcast* through :mod:`repro.perf.pool` — shipped to workers once
per pool instead of pickled into every chunk payload — and chunk
payloads carry only a token plus the per-chunk work list. Chunk count
is decoupled from worker count (``CHUNKS_PER_WORKER`` finer-grained
chunks per worker) so a slow chunk cannot leave the rest of the pool
idle at the tail of a sweep.

Determinism contract: results are merged back in the caller's input
order (chunk results are keyed by index, and route columns are merged
in ascending origin order), so the output is identical for any
``workers`` value *and any chunk granularity* — ``workers=1`` never
touches an executor at all and stays the byte-identical serial path.
The equivalence tests in ``tests/perf/test_parallel.py`` pin this
down.

Both fan-outs run through :func:`repro.resilience.resilient_map`: a
killed worker respawns the pool and replays only the chunks without
results, a hung chunk hits the policy's per-chunk timeout, and an
exhausted chunk falls back to an in-process run — none of which can
change the output, because chunks are pure functions of their payload
merged by index (see DESIGN.md §6). The broadcast registry is
installed parent-side too, so the serial fallback resolves tokens
identically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence, TypeVar

from repro.obs.trace import NULL_TRACER, AnyTracer
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import RetryPolicy, resilient_map

if TYPE_CHECKING:  # worker-side imports stay lazy; these are type-only
    from repro.bgp.propagation import RouteColumns, _Adjacency
    from repro.core.ranking import Ranking
    from repro.core.sanitize import RelationshipOracle
    from repro.core.views import View
    from repro.perf.pool import WorkerPool

T = TypeVar("T")

#: chunks per worker — finer than 1 so stragglers rebalance; results
#: are merged by index, so granularity can never change the output
CHUNKS_PER_WORKER = 4

#: one route-propagation work unit: (adjacency token, origins,
#: tiebreak, salt, keep, relevant closure, capture holder sets?)
PropagatePayload = tuple[
    str, list[int], str, int, "frozenset[int] | None",
    "frozenset[int] | None", bool,
]

#: one stability work unit: (view token, oracle token, metric, trim,
#: full ranking, k, VP samples)
StabilityPayload = tuple[
    str, str, str, float, "Ranking", int, "list[Iterable[str]]",
]


def chunked(items: Sequence[T], chunks: int) -> list[list[T]]:
    """Split into at most ``chunks`` contiguous, near-equal runs.

    Never returns empty chunks; order is preserved, so concatenating
    the result reproduces ``items``.
    """
    if chunks < 1:
        raise ValueError("need at least one chunk")
    total = len(items)
    chunks = min(chunks, total) or 1
    base, extra = divmod(total, chunks)
    out: list[list[T]] = []
    start = 0
    for index in range(chunks):
        size = base + (1 if index < extra else 0)
        if size:
            out.append(list(items[start:start + size]))
        start += size
    return out


def chunk_count(total: int, workers: int) -> int:
    """How many chunks to cut ``total`` items into for ``workers``."""
    return max(1, min(total, workers * CHUNKS_PER_WORKER))


# -- route propagation ---------------------------------------------------------


def _propagate_chunk(
    payload: PropagatePayload,
) -> tuple["RouteColumns", dict[int, frozenset[int]]]:
    """Worker: the array pass over one chunk of origins — their kept
    routes as columns, and optionally their holder sets (top-level for
    pickling)."""
    token, origins, tiebreak, salt, keep, relevant, capture = payload
    from repro.bgp.propagation import _route_pass
    from repro.perf.pool import broadcast_get

    adjacency: "_Adjacency" = broadcast_get(token)
    return _route_pass(
        adjacency, origins, tiebreak, salt, keep, relevant, capture
    )


def propagate_origins(
    adjacency: "_Adjacency",
    origins: Sequence[int],
    tiebreak: str,
    salt: int,
    keep: frozenset[int] | set[int] | None,
    workers: int,
    tracer: AnyTracer = NULL_TRACER,
    policy: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    relevant: frozenset[int] | None = None,
    capture_holders: bool = False,
    pool: "WorkerPool | None" = None,
) -> tuple["RouteColumns", dict[int, frozenset[int]]]:
    """Fan the array pass out over chunks of the ascending ``origins``;
    merge by origin.

    Returns the kept routes of every origin as one
    :class:`~repro.bgp.propagation.RouteColumns` (ascending origins)
    and ``{origin: holder set}`` keyed in ``origins`` order, regardless
    of which worker finished first — or was retried, timed out, or
    replayed after a pool respawn (``policy``/``faults`` feed the
    :func:`repro.resilience.resilient_map` wrapper). The holder map is
    empty unless ``capture_holders`` (see
    :class:`repro.bgp.propagation.PropagationBasis`).

    The adjacency is broadcast to the pool once — chunk payloads carry
    only its token. Without an external ``pool`` a transient one is
    created for this call (still one broadcast, not one per chunk).
    """
    from repro.bgp.propagation import RouteColumns

    keep_frozen = frozenset(keep) if keep is not None else None
    own_pool = pool is None
    if own_pool:
        from repro.perf.pool import WorkerPool

        pool = WorkerPool(workers)
    try:
        token = pool.broadcast("adjacency", adjacency)
        payloads: list[PropagatePayload] = [
            (token, chunk, tiebreak, salt, keep_frozen, relevant,
             capture_holders)
            for chunk in chunked(origins, chunk_count(len(origins), workers))
        ]
        parts: list[RouteColumns] = []
        holders: dict[int, frozenset[int]] = {}
        for columns, holders_part in resilient_map(
            "propagate", _propagate_chunk, payloads, workers,
            policy=policy, tracer=tracer, faults=faults, pool=pool,
        ):
            parts.append(columns)
            holders.update(holders_part)
    finally:
        if own_pool:
            pool.close()
    return (
        RouteColumns.merge(parts),
        {origin: holders[origin] for origin in origins}
        if capture_holders else {},
    )


# -- stability trials ---------------------------------------------------------


def _stability_chunk(payload: StabilityPayload) -> list[float]:
    """Worker: NDCG scores for one chunk of downsampling trials."""
    view_token, oracle_token, metric, trim, full, k, samples = payload
    from repro.analysis.stability import metric_ranking
    from repro.core.ndcg import ndcg
    from repro.perf.pool import broadcast_get

    view: "View" = broadcast_get(view_token)
    oracle: "RelationshipOracle" = broadcast_get(oracle_token)
    return [
        ndcg(full, metric_ranking(
            metric, view.restrict_vps(sample), oracle, trim
        ), k)
        for sample in samples
    ]


def stability_trials(
    metric: str,
    view: "View",
    oracle: "RelationshipOracle",
    trim: float,
    full: "Ranking",
    k: int,
    samples: Sequence[Iterable[str]],
    workers: int,
    tracer: AnyTracer = NULL_TRACER,
    policy: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    pool: "WorkerPool | None" = None,
) -> list[float]:
    """Fan NDCG trials out over sample chunks; scores return in
    ``samples`` order (chunk results are merged by index, so retries
    and pool respawns never reorder them). The view and oracle are
    broadcast once per pool, not pickled per chunk."""
    own_pool = pool is None
    if own_pool:
        from repro.perf.pool import WorkerPool

        pool = WorkerPool(workers)
    try:
        view_token = pool.broadcast("view", view)
        oracle_token = pool.broadcast("oracle", oracle)
        payloads: list[StabilityPayload] = [
            (view_token, oracle_token, metric, trim, full, k, chunk)
            for chunk in chunked(samples, chunk_count(len(samples), workers))
        ]
        scores: list[float] = []
        for part in resilient_map(
            "stability", _stability_chunk, payloads, workers,
            policy=policy, tracer=tracer, faults=faults, pool=pool,
        ):
            scores.extend(part)
    finally:
        if own_pool:
            pool.close()
    return scores
