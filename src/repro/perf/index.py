"""A shared path index over the sanitized :class:`PathSet`.

Every view in :mod:`repro.core.views` selects records by the country of
their VP and of their prefix, so building one by testing every record
costs O(all records) per view, and a sweep across many (metric,
country) pairs pays that per view. The :class:`PathIndex` pays the scan
once: record positions are bucketed by ``(vp_country,
prefix_country)`` — the only map view construction needs, grouped from
the :class:`~repro.perf.pathstore.PathStore`'s id columns and shared by
every index over that store — and a view is then the merged positions
of the selected buckets, over the same store. No record is built.

Invariant: an indexed view is **identical** to a full scan that tests
every record (``tests/oracles/views.py``) — same name, same country,
and the same positions (so the same records in the same ``PathSet``
order) — because buckets store record positions and every selection is
emitted in ascending position order. The test matrix
(``tests/oracles/test_matrix.py``) pins this down.
VP downsampling (the stability analysis) is
:meth:`repro.core.views.View.restrict_vps`, a mask over the view's VP
ids.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.registry import VIEW_KINDS
from repro.core.sanitize import PathSet
from repro.core.views import View
from repro.obs.trace import NULL_TRACER, AnyTracer

if TYPE_CHECKING:
    from repro.perf.pathstore import PathStore


class PathIndex:
    """Bucketed record positions for O(selected) view construction."""

    __slots__ = ("store", "_by_pair")

    def __init__(self, store: "PathStore") -> None:
        #: the store every view of this index selects from
        self.store = store
        #: (vp_country, prefix_country) → ascending record positions:
        #: the store's memoised grouping, read-only on both sides
        self._by_pair = store.pair_buckets()

    @classmethod
    def from_paths(cls, paths: PathSet) -> "PathIndex":
        """Index a sanitized path set through its shared store."""
        return cls(paths.store())

    def __len__(self) -> int:
        return self.store.record_count

    def indices(self, kind: str, country: str | None = None) -> np.ndarray:
        """Ascending record positions (int64) selected by a view kind.

        ``national`` is a single-bucket lookup; ``international`` /
        ``outbound`` merge the matching country-pair buckets; ``global``
        is every position.
        """
        if kind not in VIEW_KINDS:
            raise ValueError(f"unknown view kind {kind!r}")
        if kind == "global":
            return np.arange(len(self), dtype=np.int64)
        if country is None:
            raise ValueError(f"view kind {kind!r} requires a country code")
        if kind == "national":
            selected = [self._by_pair.get((country, country), ())]
        elif kind == "international":
            selected = [
                bucket
                for (vp_cc, prefix_cc), bucket in self._by_pair.items()
                if prefix_cc == country and vp_cc != country
            ]
        else:
            selected = [
                bucket
                for (vp_cc, prefix_cc), bucket in self._by_pair.items()
                if vp_cc == country and prefix_cc != country
            ]
        merged = np.concatenate([
            np.frombuffer(bucket, dtype=np.int64)
            for bucket in selected if bucket
        ] or [np.empty(0, dtype=np.int64)])
        merged.sort()
        return merged

    # -- view construction ------------------------------------------------------

    def view(
        self,
        kind: str,
        country: str | None = None,
        tracer: AnyTracer = NULL_TRACER,
    ) -> View:
        """Build a view from bucket lookups.

        Produces the same :class:`View` (name, country, positions) as
        a full scan of the records, under a ``views`` span (tagged
        ``indexed=True``).
        """
        name = kind if country is None else f"{kind}:{country}"
        with tracer.span(
            "views", kind=kind, country=country, input=len(self),
            indexed=True,
        ) as span:
            view = View(name, country, self.store, self.indices(kind, country))
            span.set(output=len(view))
            if tracer.enabled:
                tracer.metrics.histogram("views.size").observe(len(view))
                tracer.metrics.histogram("views.vps").observe(len(view.vps()))
        return view
