"""Cross-metric intermediate caching for one view.

:class:`ViewComputation` hangs off a :class:`repro.core.views.View`
(:meth:`~repro.core.views.View.computation`), one per view, and
memoises the intermediates metric families share: the AS-level customer
cones and cone address closure (CC*), the view's total address
denominator (CC* and CTI both divide by it), the CTI tables, and the
hegemony tables (AH*, and AHC's per-origin tables). The columnar
kernels (:mod:`repro.perf.cone`, :mod:`repro.perf.hegemony`) compute
them from the view's record positions in its
:class:`~repro.perf.pathstore.PathStore`; this is the one path every
ranking takes.

Cones, closure and CTI depend on the relationship oracle as well as the
view, so they are memoised per oracle: one view ranked under ground
truth and under inferred relationships holds both sets.

Hit/miss counters go into the first caller's metrics registry
(``perf.view.hit`` / ``perf.view.miss``) so a traced sweep shows
exactly how much recomputation the cache absorbed.

Determinism: a cache never changes *what* is computed, only how often.
Every product equals the reference :mod:`repro.core` scorer over the
view's records (the equivalence tests in ``tests/perf/test_cache.py``,
``tests/perf/test_cone_kernel.py`` and
``tests/perf/test_hegemony_kernel.py`` compare them value-for-value,
and the analytic oracles in ``tests/core`` hold both to hand-derived
values).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

import numpy as np

from repro.core.cone import cones_from_suffixes
from repro.core.hegemony import validate_trim
from repro.core.sanitize import RelationshipOracle
from repro.obs.trace import NULL_TRACER, AnyTracer
from repro.perf import cone
from repro.perf.hegemony import hegemony_tables

if TYPE_CHECKING:
    from repro.core.views import View

_MISSING = object()


class ViewComputation:
    """Lazily-computed, memoised intermediates for one view.

    CCI/AHI/CTI on the same international view share one instance (and
    therefore one cone closure and address total).
    """

    __slots__ = ("view", "_hits", "_misses", "_memo", "_oracles")

    def __init__(self, view: "View", tracer: AnyTracer = NULL_TRACER) -> None:
        self.view = view
        metrics = tracer.metrics
        self._hits = metrics.counter("perf.view.hit")
        self._misses = metrics.counter("perf.view.miss")
        #: product key → value (a per-origin hegemony table is None when
        #: the view holds no record toward the origin)
        self._memo: dict[tuple, Any] = {}
        #: the oracles products are keyed by, by id, kept alive so an
        #: id is never reused while its products are memoised
        self._oracles: dict[int, RelationshipOracle] = {}

    def _cached(self, key: tuple, build: Callable[[], Any]) -> Any:
        """The memoised product under ``key``, built on a miss."""
        value = self._memo.get(key, _MISSING)
        if value is _MISSING:
            self._misses.inc()
            value = self._memo[key] = build()
        else:
            self._hits.inc()
        return value

    def _oracle_key(self, oracle: RelationshipOracle) -> int:
        self._oracles.setdefault(id(oracle), oracle)
        return id(oracle)

    def suffixes(self, oracle: RelationshipOracle) -> cone.SuffixTable:
        """The store's interned transit suffixes under the oracle's
        provider→customer edge set (shared by every view over the
        store, see :meth:`PathStore.transit_suffixes`)."""
        key = ("p2c", self._oracle_key(oracle))
        p2c = self._memo.get(key)
        if p2c is None:
            p2c = self._memo[key] = cone.p2c_edges(self.view.store, oracle)
        return self.view.store.transit_suffixes(p2c)

    def _address_profile(self) -> cone.AddressProfile:
        """The view's per-origin prefixes and address total
        (:func:`repro.perf.cone.address_profile`, memoised)."""
        view = self.view
        return self._cached(
            ("profile",), lambda: cone.address_profile(view.store, view.positions)
        )

    def total_addresses(self) -> int:
        """The view's distinct destination address total (memoised)."""
        return self._address_profile().total

    def cones(self, oracle: RelationshipOracle) -> dict[int, set[int]]:
        """AS-level customer cones over the view (memoised per oracle):
        exactly :func:`repro.core.cone.customer_cones`, accumulated from
        the view's distinct transit suffixes."""
        view = self.view
        return self._cached(
            ("cones", self._oracle_key(oracle)),
            lambda: cones_from_suffixes(cone.view_suffixes(
                view.store, view.positions, self.suffixes(oracle)
            )),
        )

    def cone_addresses(self, oracle: RelationshipOracle) -> dict[int, int]:
        """Cone address closure over the view (memoised per oracle):
        exactly :func:`repro.core.cone.cone_addresses` — per-origin
        totals summed over each cone, or, when a prefix in the view has
        two origins, each cone's union of prefix ids."""
        return self._cached(
            ("closure", self._oracle_key(oracle)),
            lambda: cone.closure_totals(
                self.cones(oracle), self._address_profile()
            ),
        )

    def origin_positions(self, origins: Iterable[int]) -> dict[int, np.ndarray]:
        """Per requested origin AS with records in the view, their
        ascending positions: each a slice of the view's origin index,
        found by bisection."""
        found, bounds, positions = self._origin_index()
        wanted = np.asarray(sorted(set(origins)), dtype=np.int64)
        at = np.searchsorted(found, wanted)
        hit = at < len(found)
        hit[hit] = found[at[hit]] == wanted[hit]
        at = at[hit]
        return {
            origin: positions[lo:hi]
            for origin, lo, hi in zip(
                found[at].tolist(), bounds[at].tolist(), bounds[at + 1].tolist()
            )
        }

    def _origin_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The view's positions in one stable sort by origin AS — so each
        origin's run stays ascending — with the distinct origins and
        the bounds of their runs (memoised; an index, not a product,
        so it counts neither hit nor miss)."""
        index = self._memo.get(("origins",))
        if index is None:
            base = self.view.positions
            origin = self.view.store.record_origin[base]
            order = np.argsort(origin, kind="stable")
            origin = origin[order]
            first = np.ones(len(origin), dtype=bool)
            first[1:] = origin[1:] != origin[:-1]
            starts = np.flatnonzero(first)
            index = self._memo[("origins",)] = (
                origin[starts], np.append(starts, len(origin)), base[order],
            )
        return index

    def origin_footprints(self, origins: Iterable[int]) -> dict[int, int]:
        """Per requested origin AS with records in the view, the total
        addresses of its distinct observed prefixes (AHC-A's weight)."""
        groups = self.origin_positions(origins)
        if not groups:
            return {}
        positions = np.sort(np.concatenate(list(groups.values())))
        return cone.address_profile(self.view.store, positions).per_origin

    def local_hegemonies(
        self, origins: Iterable[int], trim: float
    ) -> dict[int, dict[int, float]]:
        """IHR's per-origin network dependency (AHC's step 1): for every
        requested origin with records in the view (the others are
        absent), hegemony over the view's paths toward it — memoised
        per ``(origin, trim)``, the tables every AHC weighting variant
        and repeated sweep shares. The missing tables come from one
        kernel call, one group per origin."""
        validate_trim(trim)
        wanted = sorted(set(origins))
        memo = self._memo
        missing = [o for o in wanted if ("local", o, trim) not in memo]
        self._hits.inc(len(wanted) - len(missing))
        if missing:
            self._misses.inc(len(missing))
            groups = self.origin_positions(missing)
            computed = dict(zip(groups, hegemony_tables(
                self.view.store, list(groups.values()), trim,
            )))
            for origin in missing:
                memo[("local", origin, trim)] = computed.get(origin)
        tables = {origin: memo[("local", origin, trim)] for origin in wanted}
        return {
            origin: table for origin, table in tables.items()
            if table is not None
        }

    def cti(self, oracle: RelationshipOracle, trim: float) -> dict[int, float]:
        """The view's CTI table from the columnar kernel
        (:func:`repro.perf.cone.cti_scores`), memoised per oracle and
        trim; equal to :func:`repro.core.cti.cti_scores` over the view's
        records."""
        validate_trim(trim)
        view = self.view
        return self._cached(
            ("cti", self._oracle_key(oracle), trim),
            lambda: cone.cti_scores(
                view.store, view.positions, self.suffixes(oracle),
                self.total_addresses(), trim,
            ),
        )

    def hegemony(
        self, trim: float, weighting: str = "addresses"
    ) -> dict[int, float]:
        """The view's hegemony table from the columnar kernel
        (:func:`repro.perf.hegemony.hegemony_tables`, the view as one
        group), memoised per (trim, weighting)."""
        view = self.view
        return self._cached(
            ("hegemony", trim, weighting),
            lambda: hegemony_tables(
                view.store, [view.positions], trim, weighting
            )[0],
        )
