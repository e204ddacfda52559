"""A shared path index over the sanitized :class:`PathSet`.

Every view in :mod:`repro.core.views` is a linear filter over *all*
sanitized records, so a sweep across many (metric, country) pairs pays
O(all records) per view. The :class:`PathIndex` pays that scan once:
record positions are bucketed by ``(vp_country, prefix_country)`` —
the only map view construction needs, grouped from the
:class:`~repro.perf.pathstore.PathStore`'s id columns and shared by
every index over that store — and view construction then touches only
the selected buckets.

Invariant: an indexed view is **identical** to its naive counterpart —
same name, same country, and the same records in the same (original
``PathSet``) order — because buckets store record positions and every
selection is emitted in ascending position order. The equivalence tests
in ``tests/perf/test_index.py`` pin this down.

:class:`ViewSlicer` is the same idea for VP downsampling: it buckets
one view's records by VP IP so the stability analysis
(:mod:`repro.analysis.stability`) can materialise hundreds of trial
views as merged index slices instead of re-filtering the view per
trial.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.sanitize import PathRecord, PathSet
from repro.core.views import View, ip_sort_key
from repro.obs.trace import NULL_TRACER, AnyTracer

if TYPE_CHECKING:
    from repro.perf.pathstore import PathStore

#: View kinds the index can build, with their (vp_in, prefix_in)
#: country-membership selectors relative to the target country.
VIEW_KINDS = ("national", "international", "outbound", "global")


class PathIndex:
    """Bucketed record lookups for O(selected) view construction."""

    __slots__ = ("records", "_by_pair")

    def __init__(self, store: "PathStore") -> None:
        #: the store's records — a lazy sequence over the mapped columns
        #: for a spilled store, never materialized here
        self.records: Sequence[PathRecord] = store.records
        #: (vp_country, prefix_country) → ascending record positions:
        #: the store's memoised grouping, read-only on both sides
        self._by_pair = store.pair_buckets()

    @classmethod
    def from_paths(cls, paths: PathSet) -> "PathIndex":
        """Index a sanitized path set through its shared store."""
        return cls(paths.store())

    def __len__(self) -> int:
        return len(self.records)

    def indices(self, kind: str, country: str | None = None) -> list[int]:
        """Ascending record positions selected by a view kind.

        ``national`` is a single-bucket lookup; ``international`` /
        ``outbound`` merge the matching country-pair buckets; ``global``
        is every position.
        """
        if kind not in VIEW_KINDS:
            raise ValueError(f"unknown view kind {kind!r}")
        if kind == "global":
            return list(range(len(self.records)))
        if country is None:
            raise ValueError(f"view kind {kind!r} requires a country code")
        if kind == "national":
            return list(self._by_pair.get((country, country), ()))
        if kind == "international":
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
        merged: list[int] = []
        for bucket in selected:
            merged.extend(bucket)
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

        Produces the same :class:`View` (name, country, record order)
        as the naive builders in :mod:`repro.core.views`, under the
        same ``views`` span (tagged ``indexed=True``).
        """
        name = kind if country is None else f"{kind}:{country}"
        with tracer.span(
            "views", kind=kind, country=country, input=len(self.records),
            indexed=True,
        ) as span:
            if kind == "global":
                records = self.records
            else:
                selected = self.indices(kind, country)
                all_records = self.records
                records = tuple([all_records[i] for i in selected])
            view = View(name=name, country=country, records=records)
            span.set(output=len(view.records))
            if tracer.enabled:
                tracer.metrics.histogram("views.size").observe(len(view.records))
                tracer.metrics.histogram("views.vps").observe(len(view.vps()))
        return view


class ViewSlicer:
    """Per-view VP buckets for fast repeated VP downsampling.

    ``restrict(ips)`` returns the same :class:`View` as
    ``view.restrict_vps(ips)`` — same name, same record order — but in
    O(records of the kept VPs · log) instead of O(all view records) per
    call, which is what makes hundreds of stability trials cheap.
    """

    __slots__ = ("view", "_by_vp")

    def __init__(self, view: View) -> None:
        self.view = view
        self._by_vp: dict[str, list[int]] = {}
        by_vp = self._by_vp
        for position, record in enumerate(view.records):
            bucket = by_vp.get(record.vp.ip)
            if bucket is None:
                by_vp[record.vp.ip] = [position]
            else:
                bucket.append(position)

    def vp_ips(self) -> list[str]:
        """The view's VP IPs, ordered by parsed address (same order as
        ``View.vps()``)."""
        return sorted(self._by_vp, key=ip_sort_key)

    def restrict(self, vp_ips: Iterable[str]) -> View:
        """The view downsampled to a VP subset, via index slices."""
        keep = set(vp_ips)
        positions: list[int] = []
        for ip in keep:
            positions.extend(self._by_vp.get(ip, ()))
        positions.sort()
        view = self.view
        return View(
            name=f"{view.name}|{len(keep)}vps",
            country=view.country,
            records=tuple(view.records[i] for i in positions),
        )
