"""Cross-metric intermediate caching for the ranking sweep.

:class:`ViewComputation` hangs off
:class:`repro.core.pipeline.PipelineResult`, one per view, and memoises
the intermediates metric families share: the AS-level customer cones
and cone address closure (CC*), the view's total address denominator
(CC* and CTI both divide by it), the CTI tables, and the hegemony
tables (AH*, and AHC's per-origin tables). The columnar kernels
(:mod:`repro.perf.cone`, :mod:`repro.perf.hegemony`) compute them from
the view's record positions in the shared
:class:`~repro.perf.pathstore.PathStore`.

Hit/miss counters go into the pipeline's metrics registry
(``perf.view.hit`` / ``perf.view.miss``) so a traced sweep shows
exactly how much recomputation the cache absorbed.

Determinism: a cache never changes *what* is computed, only how often —
every product is the exact object the naive code path would have built
(the equivalence tests in ``tests/perf/test_cache.py``,
``tests/perf/test_cone_kernel.py`` and
``tests/perf/test_hegemony_kernel.py`` compare them value-for-value).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.cone import cone_addresses, cones_from_suffixes
from repro.core.hegemony import validate_trim
from repro.core.sanitize import RelationshipOracle
from repro.core.views import View
from repro.obs.trace import NULL_TRACER, AnyTracer
from repro.perf import cone
from repro.perf.hegemony import hegemony_tables
from repro.perf.pathstore import PathStore


class ViewComputation:
    """Lazily-computed, memoised intermediates for one view.

    One instance per (view, oracle) pair; the pipeline result keeps a
    table of them keyed like its view table, so CCI/AHI/CTI on the same
    international view share a single instance (and therefore a single
    cone closure and address total).

    ``store`` / ``positions`` locate the view's records in a shared
    :class:`~repro.perf.pathstore.PathStore`: ``positions`` are their
    ascending record positions, ``None`` meaning every stored record
    (the global view). Without a store, one is built over the view's
    own records on first use, so every kernel has one code path.
    """

    __slots__ = (
        "view", "oracle", "_hits", "_misses", "_p2c", "_profile",
        "_cones", "_cone_addresses", "_hegemony", "_cti",
        "_store", "_positions", "_local_hegemony",
    )

    def __init__(
        self,
        view: View,
        oracle: RelationshipOracle,
        tracer: AnyTracer = NULL_TRACER,
        store: PathStore | None = None,
        positions: Sequence[int] | None = None,
    ) -> None:
        self.view = view
        self.oracle = oracle
        metrics = tracer.metrics
        self._hits = metrics.counter("perf.view.hit")
        self._misses = metrics.counter("perf.view.miss")
        self._p2c: frozenset[tuple[int, int]] | None = None
        self._profile: tuple[dict[int, int], int, bool] | None = None
        self._cones: dict[int, set[int]] | None = None
        self._cone_addresses: dict[int, int] | None = None
        self._hegemony: dict[tuple[float, str], dict[int, float]] = {}
        self._cti: dict[float, dict[int, float]] = {}
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

    def suffixes(self) -> cone.SuffixTable:
        """The store's interned transit suffixes under the oracle's
        provider→customer edge set (shared by every view over the
        store, see :meth:`PathStore.transit_suffixes`)."""
        store = self.store()
        if self._p2c is None:
            self._p2c = cone.p2c_edges(store, self.oracle)
        return store.transit_suffixes(self._p2c)

    def _address_profile(self) -> tuple[dict[int, int], int, bool]:
        """Per-origin owned addresses, the address total and the MOAS
        flag of the view (:func:`repro.perf.cone.address_profile`,
        memoised)."""
        if self._profile is None:
            self._misses.inc()
            self._profile = cone.address_profile(
                self.store(), self.positions()
            )
        else:
            self._hits.inc()
        return self._profile

    def total_addresses(self) -> int:
        """The view's distinct destination address total (memoised)."""
        return self._address_profile()[1]

    def cones(self) -> dict[int, set[int]]:
        """AS-level customer cones over the view (memoised): exactly
        :func:`repro.core.cone.customer_cones`, accumulated from the
        view's distinct transit suffixes."""
        if self._cones is None:
            self._misses.inc()
            self._cones = cones_from_suffixes(cone.view_suffixes(
                self.store(), self.positions(), self.suffixes()
            ))
        else:
            self._hits.inc()
        return self._cones

    def cone_addresses(self) -> dict[int, int]:
        """Cone address closure over the view (memoised): per-origin
        totals summed over each cone, or the union-based
        :func:`repro.core.cone.cone_addresses` when a prefix in the
        view has two origins."""
        if self._cone_addresses is None:
            self._misses.inc()
            origin_addresses, _, moas = self._address_profile()
            self._cone_addresses = (
                cone_addresses(
                    self.view.records, self.oracle, as_cones=self.cones()
                )
                if moas else cone.closure_totals(self.cones(), origin_addresses)
            )
        else:
            self._hits.inc()
        return self._cone_addresses

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
        groups = self.origin_positions(origins)
        if not groups:
            return {}
        positions = np.sort(np.concatenate(list(groups.values())))
        return cone.address_profile(self.store(), positions)[0]

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
        """The view's CTI table from the columnar kernel
        (:func:`repro.perf.cone.cti_scores`), memoised per trim; equal
        to :func:`repro.core.cti.cti_scores` over the view's records."""
        validate_trim(trim)
        cached = self._cti.get(trim)
        if cached is None:
            self._misses.inc()
            cached = cone.cti_scores(
                self.store(), self.positions(), self.suffixes(),
                self.total_addresses(), trim,
            )
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
