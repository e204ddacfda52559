"""A shared path index over the sanitized :class:`PathSet`.

Every view in :mod:`repro.core.views` is a linear filter over *all*
sanitized records, so a sweep across many (metric, country) pairs pays
O(all records) per view. The :class:`PathIndex` pays that scan once:
records are bucketed by ``(vp_country, prefix_country)`` up front —
the only map view construction needs — and view construction then
touches only the selected buckets. The secondary maps (by VP IP, by
origin, ``origin → prefixes``, per-prefix addresses) are each built
lazily on first use, so a ranking sweep never pays for lookups it does
not perform.

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

from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.sanitize import PathRecord, PathSet
from repro.core.views import View, ip_sort_key
from repro.net.prefix import Prefix
from repro.obs.trace import NULL_TRACER, AnyTracer

if TYPE_CHECKING:
    from repro.perf.pathstore import PathStore

#: View kinds the index can build, with their (vp_in, prefix_in)
#: country-membership selectors relative to the target country.
VIEW_KINDS = ("national", "international", "outbound", "global")


class PathIndex:
    """Bucketed record lookups for O(selected) view construction."""

    __slots__ = (
        "records", "_store", "_by_pair", "_by_vp", "_by_origin",
        "_origin_prefixes", "_prefix_addresses",
    )

    def __init__(
        self,
        records: Sequence[PathRecord],
        store: "PathStore | None" = None,
    ) -> None:
        # lists/iterables are snapshotted; an immutable lazy sequence
        # (the mmap store's record view) is kept as-is so indexing a
        # spilled PathSet never materializes the full record list
        if isinstance(records, (list, tuple)) or not isinstance(
            records, Sequence
        ):
            records = tuple(records)
        self.records: Sequence[PathRecord] = records
        #: optional SoA mirror of *exactly these* records; when present
        #: the pair and origin buckets come from its shared groupings
        #: instead of per-index record walks
        self._store = store
        #: (vp_country, prefix_country) → ascending record positions
        self._by_pair: dict[tuple[str, str], Sequence[int]] = {}
        self._by_vp: dict[str, list[int]] | None = None
        self._by_origin: dict[int, list[int]] | None = None
        self._origin_prefixes: dict[int, set[Prefix]] | None = None
        self._prefix_addresses: dict[Prefix, int] | None = None
        if store is not None:
            # the store memoises the same first-appearance bucket dict,
            # so every index over one PathSet shares a single scan; the
            # buckets are read-only on both sides
            self._by_pair = store.pair_buckets()
            return
        by_pair = self._by_pair
        # attrgetter materialises the (vp_country, prefix_country) key
        # tuple in C — this loop is the only full-record scan a ranking
        # sweep pays, so it is kept as lean as possible.
        pair_of = attrgetter("vp_country", "prefix_country")
        for position, pair in enumerate(map(pair_of, self.records)):
            bucket = by_pair.get(pair)
            if bucket is None:
                by_pair[pair] = [position]
            else:
                bucket.append(position)

    @classmethod
    def from_paths(cls, paths: PathSet) -> "PathIndex":
        """Index a sanitized path set (one O(n) pass), sharing its SoA
        store so the origin buckets are array walks."""
        return cls(paths.records, store=paths.store())

    # -- lazy secondary maps --------------------------------------------------

    def _vp_buckets(self) -> dict[str, list[int]]:
        """VP IP → ascending record positions (built on first use)."""
        if self._by_vp is None:
            by_vp: dict[str, list[int]] = {}
            for position, record in enumerate(self.records):
                ip = record.vp.ip
                bucket = by_vp.get(ip)
                if bucket is None:
                    by_vp[ip] = [position]
                else:
                    bucket.append(position)
            self._by_vp = by_vp
        return self._by_vp

    def _origin_buckets(self) -> dict[int, list[int]]:
        """Origin ASN → ascending record positions (built on first use,
        together with the origin → prefixes map).

        With a :class:`~repro.perf.pathstore.PathStore` attached the
        buckets come from its flat origin column (same dict, grouped in
        C instead of a per-record attribute walk); the record objects
        are only touched for the prefix sets.
        """
        if self._by_origin is None:
            records = self.records
            if self._store is not None:
                by_origin = self._store.origin_buckets()
                origin_prefixes = {
                    origin: {records[position].prefix for position in bucket}
                    for origin, bucket in by_origin.items()
                }
            else:
                by_origin = {}
                origin_prefixes = {}
                for position, record in enumerate(records):
                    origin = record.path.origin
                    bucket = by_origin.get(origin)
                    if bucket is None:
                        by_origin[origin] = [position]
                        origin_prefixes[origin] = {record.prefix}
                    else:
                        bucket.append(position)
                        origin_prefixes[origin].add(record.prefix)
            self._by_origin = by_origin
            self._origin_prefixes = origin_prefixes
        return self._by_origin

    @property
    def origin_prefixes(self) -> dict[int, set[Prefix]]:
        """Origin ASN → distinct prefixes it originates (observed)."""
        self._origin_buckets()
        assert self._origin_prefixes is not None
        return self._origin_prefixes

    @property
    def prefix_addresses(self) -> dict[Prefix, int]:
        """Prefix → owned address count carried on its records."""
        if self._prefix_addresses is None:
            self._prefix_addresses = {
                record.prefix: record.addresses for record in self.records
            }
        return self._prefix_addresses

    # -- bucket queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def countries(self) -> list[str]:
        """Destination countries present, sorted (mirrors PathSet)."""
        return sorted({prefix_cc for _, prefix_cc in self._by_pair})

    def vp_ips(self) -> list[str]:
        """All VP IPs present, ordered by parsed address."""
        return sorted(self._vp_buckets(), key=ip_sort_key)

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

    def origin_indices(self, origins: Iterable[int]) -> list[int]:
        """Ascending positions of records toward the given origin ASes
        (the AHC / destination-view selector)."""
        by_origin = self._origin_buckets()
        merged: list[int] = []
        for origin in set(origins):
            merged.extend(by_origin.get(origin, ()))
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

    def destination_view(self, origins: Iterable[int]) -> View:
        """Indexed counterpart of :func:`repro.core.views.destination_view`."""
        wanted = frozenset(origins)
        selected = self.origin_indices(wanted)
        all_records = self.records
        return View(
            name=f"destination:{len(wanted)}ases",
            country=None,
            records=tuple([all_records[i] for i in selected]),
        )


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
