"""Cross-metric intermediate caching for the ranking sweep.

Two layers, both hanging off :class:`repro.core.pipeline.PipelineResult`:

* :class:`SuffixCache` — transit suffixes memoised per unique
  ``(path, oracle)``. The cone metrics (CC*) and CTI both walk the same
  suffixes; paths repeat across records (one VP announces many prefixes
  over the same AS path) and across views (a record is in the global
  view *and* in one country's national or international view), so a
  single sweep hits the same suffix many times.

* :class:`ViewComputation` — per-view intermediates shared between
  metric families: the AS-level customer cones and cone address
  closure (CC*), the view's total address denominator (CC* and CTI
  both divide by it), and the hegemony tables (AH*, and AHC's
  per-origin tables) that the columnar kernel
  (:mod:`repro.perf.hegemony`) computes from the view's record
  positions in the shared :class:`~repro.perf.pathstore.PathStore`.

Both layers report hit/miss counters into the pipeline's metrics
registry (``perf.suffix.hit`` / ``perf.suffix.miss`` and
``perf.view.hit`` / ``perf.view.miss``) so a traced sweep shows exactly
how much recomputation the cache absorbed.

Determinism: a cache never changes *what* is computed, only how often —
every product is the exact object the naive code path would have built
(the equivalence tests in ``tests/perf/test_cache.py`` and
``tests/perf/test_hegemony_kernel.py`` compare them value-for-value).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.cone import (
    cone_addresses,
    cones_from_suffixes,
    transit_suffix,
)
from repro.core.cti import per_vp_transit
from repro.core.hegemony import trimmed_scores_sparse, validate_trim
from repro.core.sanitize import PathRecord, RelationshipOracle
from repro.core.views import View
from repro.net.aspath import ASPath
from repro.obs.trace import NULL_TRACER, AnyTracer
from repro.perf.hegemony import hegemony_tables
from repro.perf.pathstore import PathStore


class SuffixCache:
    """Memoised ``transit_suffix`` bound to one relationship oracle.

    ``table`` is the raw ``path → suffix`` dict; hot loops may read it
    directly and fall back to calling the cache on a miss."""

    __slots__ = (
        "oracle", "table", "_p2c", "_store", "_starts", "_hits", "_misses",
    )

    def __init__(
        self,
        oracle: RelationshipOracle,
        tracer: AnyTracer = NULL_TRACER,
        store: "PathStore | None" = None,
    ) -> None:
        self.oracle = oracle
        self.table: dict[ASPath, tuple[int, ...]] = {}
        # Oracles exposing their provider→customer pairs as a flat edge
        # set (ASGraph, InferredRelationships) let the miss path test
        # links by set membership instead of a method call per link.
        edges = getattr(oracle, "p2c_edges", None)
        self._p2c: frozenset[tuple[int, int]] | None = (
            edges() if edges is not None else None
        )
        #: optional SoA store over the result's records: misses on its
        #: paths slice from one vectorized suffix-start pass instead of
        #: scanning the path backward link by link
        self._store = store if self._p2c is not None else None
        self._starts: list[int] | None = None
        metrics = tracer.metrics
        self._hits = metrics.counter("perf.suffix.hit")
        self._misses = metrics.counter("perf.suffix.miss")

    def __len__(self) -> int:
        return len(self.table)

    def _compute(self, path: ASPath) -> tuple[int, ...]:
        p2c = self._p2c
        if p2c is None:
            return transit_suffix(path, self.oracle)
        store = self._store
        if store is not None:
            pid = store.path_ids.get(path)
            if pid is not None:
                if self._starts is None:
                    self._starts = store.suffix_starts(p2c)
                offset = int(store.offsets[pid])
                end = offset + int(store.lengths[pid])
                return tuple(
                    store.token_list()[offset + self._starts[pid]:end]
                )
        asns = path.asns
        start = len(asns) - 1
        for index in range(len(asns) - 2, -1, -1):
            if (asns[index], asns[index + 1]) in p2c:
                start = index
            else:
                break
        return asns[start:]

    def __call__(self, path: ASPath) -> tuple[int, ...]:
        """The transit suffix of ``path`` under the bound oracle."""
        cached = self.table.get(path)
        if cached is not None:
            self._hits.inc()
            return cached
        self._misses.inc()
        suffix = self._compute(path)
        self.table[path] = suffix
        return suffix

    def resolve_many(
        self, records: Iterable[PathRecord]
    ) -> list[tuple[int, ...]]:
        """Each record's transit suffix, aligned with the input order.

        One tight pass over the raw table (hit/miss counters are updated
        in bulk) — shared by every per-record consumer on the engine
        path, so a view's suffixes are resolved once per sweep.
        """
        table = self.table
        compute = self._compute
        suffixes: list[tuple[int, ...]] = []
        append = suffixes.append
        hits = 0
        for record in records:
            path = record.path
            suffix = table.get(path)
            if suffix is None:
                suffix = compute(path)
                table[path] = suffix
            else:
                hits += 1
            append(suffix)
        self._hits.inc(hits)
        self._misses.inc(len(suffixes) - hits)
        return suffixes

    def unique_suffixes(
        self, records: Iterable[PathRecord]
    ) -> set[tuple[int, ...]]:
        """The distinct transit suffixes across the records' paths —
        the input to order-insensitive consumers like
        :func:`repro.core.cone.cones_from_suffixes`, which deduplicated
        suffixes feed without changing the result.
        """
        return set(self.resolve_many(records))


class ViewComputation:
    """Lazily-computed, memoised intermediates for one view.

    One instance per (view, oracle) pair; the pipeline result keeps a
    table of them keyed like its view table, so CCI/AHI/CTI on the same
    international view share a single instance (and therefore a single
    suffix walk, cone closure, and address total).

    ``store`` / ``positions`` locate the view's records in a shared
    :class:`~repro.perf.pathstore.PathStore`: ``positions`` are their
    ascending record positions, ``None`` meaning every stored record
    (the global view). Without a store, one is built over the view's
    own records on first use, so the hegemony kernel has one code path.
    """

    __slots__ = (
        "view", "oracle", "suffix_of", "_hits", "_misses",
        "_total_addresses", "_cones", "_cone_addresses",
        "_hegemony", "_cti", "_profile", "_suffix_list",
        "_store", "_positions", "_local_hegemony",
    )

    def __init__(
        self,
        view: View,
        oracle: RelationshipOracle,
        suffix_of: SuffixCache | None = None,
        tracer: AnyTracer = NULL_TRACER,
        store: PathStore | None = None,
        positions: Sequence[int] | None = None,
    ) -> None:
        self.view = view
        self.oracle = oracle
        #: the shared suffix resolver (falls back to a private cache so
        #: a standalone ViewComputation still dedupes within the view)
        self.suffix_of = (
            suffix_of if suffix_of is not None else SuffixCache(oracle, tracer)
        )
        metrics = tracer.metrics
        self._hits = metrics.counter("perf.view.hit")
        self._misses = metrics.counter("perf.view.miss")
        self._total_addresses: int | None = None
        self._cones: dict[int, set[int]] | None = None
        self._cone_addresses: dict[int, int] | None = None
        self._hegemony: dict[tuple[float, str], dict[int, float]] = {}
        self._cti: dict[float, dict[int, float]] = {}
        self._profile: tuple[dict[int, int], int, bool] | None = None
        self._suffix_list: list[tuple[int, ...]] | None = None
        self._store = store
        self._positions: np.ndarray | None = (
            None if positions is None
            else np.asarray(positions, dtype=np.int64)
        )
        #: per (origin, trim): the origin's table, None when the view
        #: holds no record toward it
        self._local_hegemony: dict[
            tuple[int, float], dict[int, float] | None
        ] = {}

    def _prefix_profile(self) -> tuple[dict[int, int], int, bool]:
        """One walk over the records shared by the address total and the
        cone closure: per-origin owned-address totals, the view's address
        total, and whether every prefix carried a single (origin,
        addresses) pair — always true of pipeline output. An
        inconsistent view (MOAS prefix or conflicting weights) reports
        ``consistent=False`` and its callers fall back to the exact
        naive computations.
        """
        if self._profile is None:
            per_prefix: dict = {}
            origin_addresses: dict[int, int] = {}
            consistent = True
            for record in self.view.records:
                prefix = record.prefix
                origin = record.path.origin
                addresses = record.addresses
                seen = per_prefix.get(prefix)
                if seen is None:
                    per_prefix[prefix] = (origin, addresses)
                    origin_addresses[origin] = (
                        origin_addresses.get(origin, 0) + addresses
                    )
                elif seen[0] != origin or seen[1] != addresses:
                    consistent = False
                    break
            total = (
                sum(addresses for _, addresses in per_prefix.values())
                if consistent else 0
            )
            self._profile = (origin_addresses, total, consistent)
        return self._profile

    def total_addresses(self) -> int:
        """The view's distinct destination address total (memoised)."""
        if self._total_addresses is None:
            self._misses.inc()
            _, total, consistent = self._prefix_profile()
            self._total_addresses = (
                total if consistent else self.view.total_addresses()
            )
        else:
            self._hits.inc()
        return self._total_addresses

    def cones(self) -> dict[int, set[int]]:
        """AS-level customer cones over the view (memoised).

        Accumulated from the view's *distinct* transit suffixes — the
        cone updates are idempotent per suffix, so the result is exactly
        :func:`repro.core.cone.customer_cones` with the per-record
        duplicate work skipped.
        """
        if self._cones is None:
            self._misses.inc()
            self._cones = cones_from_suffixes(set(self.record_suffixes()))
        else:
            self._hits.inc()
        return self._cones

    def record_suffixes(self) -> list[tuple[int, ...]]:
        """Each view record's transit suffix, resolved once through the
        shared cache and memoised (cones and CTI both consume it)."""
        if self._suffix_list is None:
            self._suffix_list = self.suffix_of.resolve_many(self.view.records)
        return self._suffix_list

    def cone_addresses(self) -> dict[int, int]:
        """Cone address closure over the view (memoised; reuses the
        AS-level cones)."""
        if self._cone_addresses is None:
            self._misses.inc()
            self._cone_addresses = self._closure_addresses()
        else:
            self._hits.inc()
        return self._cone_addresses

    def _closure_addresses(self) -> dict[int, int]:
        """Closure cone addresses without materialising prefix sets.

        When every prefix in the view carries a single (origin, address
        count) pair, the cone members' prefix sets are disjoint, so each
        AS's closure total is the sum of its members' per-origin address
        totals (see :meth:`_prefix_profile`). A view that violates that
        falls back to the exact union-based
        :func:`repro.core.cone.cone_addresses`.
        """
        origin_addresses, _, consistent = self._prefix_profile()
        if not consistent:
            return cone_addresses(
                self.view.records, self.oracle, self.suffix_of, self.cones()
            )
        # Sum over the smaller side: a big cone holds many ASes that
        # originate nothing in-view, so testing the (few) in-view
        # origins against its member set beats probing every member.
        get = origin_addresses.get
        origin_items = list(origin_addresses.items())
        pivot = len(origin_items)
        totals: dict[int, int] = {}
        for asn, members in self.cones().items():
            size = len(members)
            if size == 1:
                totals[asn] = get(asn, 0)
            elif size <= pivot:
                totals[asn] = sum(get(member, 0) for member in members)
            else:
                totals[asn] = sum(
                    count for origin, count in origin_items if origin in members
                )
        return totals

    def store(self) -> PathStore:
        """The columnar store holding the view's records."""
        if self._store is None:
            self._store = PathStore(self.view.records)
            self._positions = None
        return self._store

    def positions(self) -> np.ndarray:
        """The view's ascending record positions in :meth:`store`."""
        store = self.store()
        if self._positions is None:
            return np.arange(store.record_count, dtype=np.int64)
        return self._positions

    def origin_positions(self, origins: Iterable[int]) -> dict[int, np.ndarray]:
        """Per requested origin AS with records in the view, their
        ascending positions, grouped from the store's origin column."""
        column = np.asarray(self.store().record_origin, dtype=np.int64)
        base = self._positions
        selected = column if base is None else column[base]
        wanted = np.asarray(sorted(set(origins)), dtype=np.int64)
        hits = np.flatnonzero(np.isin(selected, wanted))
        if len(hits) == 0:
            return {}
        # a stable sort by origin keeps each origin's positions ascending
        order = np.argsort(selected[hits], kind="stable")
        found = selected[hits][order]
        positions = (hits if base is None else base[hits])[order]
        cuts = np.flatnonzero(found[1:] != found[:-1]) + 1
        starts = np.concatenate(([0], cuts))
        return dict(zip(found[starts].tolist(), np.split(positions, cuts)))

    def origin_footprints(self, origins: Iterable[int]) -> dict[int, int]:
        """Per requested origin AS with records in the view, the total
        addresses of its distinct observed prefixes (AHC-A's weight)."""
        store = self.store()
        return {
            origin: store.prefix_addresses(group.tolist())
            for origin, group in self.origin_positions(origins).items()
        }

    def local_hegemony(self, origin: int, trim: float) -> dict[int, float]:
        """IHR's per-origin network dependency (AHC's step 1): hegemony
        over the view's paths toward one origin AS (``{}`` when there
        are none)."""
        return self.local_hegemonies((origin,), trim).get(origin, {})

    def local_hegemonies(
        self, origins: Iterable[int], trim: float
    ) -> dict[int, dict[int, float]]:
        """:meth:`local_hegemony` for every requested origin with records
        in the view (the others are absent), memoised per
        ``(origin, trim)`` — the tables every AHC weighting variant and
        repeated sweep shares. The missing tables come from one kernel
        call, one group per origin."""
        validate_trim(trim)
        wanted = sorted(set(origins))
        memo = self._local_hegemony
        missing = [origin for origin in wanted if (origin, trim) not in memo]
        self._hits.inc(len(wanted) - len(missing))
        if missing:
            self._misses.inc(len(missing))
            groups = self.origin_positions(missing)
            computed = dict(zip(groups, hegemony_tables(
                self.store(), list(groups.values()), trim,
            )))
            for origin in missing:
                memo[(origin, trim)] = computed.get(origin)
        tables = {origin: memo[(origin, trim)] for origin in wanted}
        return {
            origin: table for origin, table in tables.items()
            if table is not None
        }

    def cti(self, trim: float) -> dict[int, float]:
        """The view's CTI table — step 1 over the shared suffix table,
        step 2 via the zero-skipping trimmed mean — memoised per trim.

        Identical to :func:`repro.core.cti.cti_scores`: the per-VP
        weights are scaled by the address total entry-by-entry (the same
        division the dense path performs), then trimmed exactly as the
        sparse hegemony step. An out-of-range trim is rejected up front
        (``validate_trim``), exactly as on the uncached path.
        """
        validate_trim(trim)
        cached = self._cti.get(trim)
        if cached is None:
            self._misses.inc()
            total = self.total_addresses()
            if total <= 0:
                cached = {}
            else:
                per_vp, universe = per_vp_transit(
                    self.view.records, self.oracle,
                    suffixes=self.record_suffixes(),
                )
                scaled = {
                    vp_ip: {asn: value / total for asn, value in vp_scores.items()}
                    for vp_ip, vp_scores in per_vp.items()
                }
                cached = trimmed_scores_sparse(scaled, universe, trim)
            self._cti[trim] = cached
        else:
            self._hits.inc()
        return cached

    def hegemony(
        self, trim: float, weighting: str = "addresses"
    ) -> dict[int, float]:
        """The view's hegemony table from the columnar kernel
        (:func:`repro.perf.hegemony.hegemony_tables`, the view as one
        group), memoised per (trim, weighting)."""
        key = (trim, weighting)
        cached = self._hegemony.get(key)
        if cached is None:
            self._misses.inc()
            cached = hegemony_tables(
                self.store(), [self.positions()], trim, weighting
            )[0]
            self._hegemony[key] = cached
        else:
            self._hits.inc()
        return cached
