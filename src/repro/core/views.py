"""National / international / global views over a sanitized path set.

Paper §3.2 (and Table 2): for a target country,

* the **national** view keeps paths from in-country VPs to in-country
  prefixes — how the country reaches itself;
* the **international** view keeps paths from out-of-country VPs to
  in-country prefixes — how the rest of the world reaches it;
* the **global** view keeps everything (the CCG/AHG baselines).

A :class:`View` is a :class:`~repro.perf.pathstore.PathStore` plus the
ascending positions of its records there (every position for the
global view). Its size, VPs and address total read the store's id
columns and side tables; every metric ranks it through its memoised
:meth:`View.computation`, the columnar kernels' intermediates.
``view.records`` is the store's record façade at those positions, for
the code that iterates records: the reference scorers, exports and
tests.

The pipeline builds views from :class:`repro.perf.index.PathIndex`
bucket lookups. The builders below filter every record of a path set
one by one — the naive references the index is held to, used by tests
only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.bgp.collectors import VantagePoint
from repro.core.sanitize import PathRecord, PathSet
from repro.net.prefix import parse_address
from repro.obs.trace import NULL_TRACER, AnyTracer

if TYPE_CHECKING:  # perf imports core at runtime; the cycle is type-only
    from repro.perf.cache import ViewComputation
    from repro.perf.pathstore import PathStore


def ip_sort_key(ip: str) -> tuple[int, int]:
    """Numeric ordering for VP IPs: by family, then by address value.

    Lexicographic string order puts "10.0.0.1" before "9.0.0.1"; every
    "ordered by IP" contract in this package means *this* ordering.
    """
    return parse_address(ip)


class View:
    """A named subset of sanitized records: positions in a store."""

    __slots__ = ("name", "country", "store", "positions", "_computation")

    def __init__(
        self,
        name: str,
        country: str | None,
        store: "PathStore",
        positions: np.ndarray | Sequence[int] | None = None,
    ) -> None:
        """The records of ``store`` at ascending ``positions`` (every
        record when ``None``)."""
        self.name = name
        self.country = country
        self.store = store
        #: ascending int64 record positions in ``store``
        self.positions: np.ndarray = (
            np.arange(store.record_count, dtype=np.int64) if positions is None
            else np.asarray(positions, dtype=np.int64)
        )
        self._computation: "ViewComputation | None" = None

    @classmethod
    def of(
        cls, name: str, country: str | None, records: Iterable[PathRecord]
    ) -> "View":
        """A view over hand-built records: a store over them, every
        record selected."""
        from repro.perf.pathstore import PathStore

        return cls(name, country, PathStore(records))

    def __len__(self) -> int:
        return len(self.positions)

    def __iter__(self) -> Iterator[PathRecord]:
        return iter(self.records)

    @property
    def records(self) -> Sequence[PathRecord]:
        """The view's records, rebuilt from the store's columns on
        access (never on the ranking path)."""
        return self.store.records_at(self.positions)

    def computation(self, tracer: AnyTracer = NULL_TRACER) -> "ViewComputation":
        """The view's memoised kernel intermediates — cones, closure,
        address total, CTI and hegemony tables — which every metric
        over the view shares (built on first use; the first caller's
        tracer counts its hits and misses)."""
        if self._computation is None:
            from repro.perf.cache import ViewComputation

            self._computation = ViewComputation(self, tracer)
        return self._computation

    def vps(self) -> list[VantagePoint]:
        """Distinct VPs contributing records, ordered by IP."""
        table = self.store.vp_table
        ids = np.unique(self.store.record_vp[self.positions]).tolist()
        return sorted(
            (table[vid][0] for vid in ids), key=lambda vp: ip_sort_key(vp.ip)
        )

    def total_addresses(self) -> int:
        """Distinct destination addresses covered by this view."""
        return self.computation().total_addresses()

    def restrict_vps(self, vp_ips: Iterable[str]) -> "View":
        """The same view downsampled to a subset of VPs (stability §4):
        a mask over the view's VP ids."""
        keep = set(vp_ips)
        table = self.store.vp_table
        kept = np.zeros(len(table), dtype=bool)
        kept[[vid for vid, (vp, _) in enumerate(table) if vp.ip in keep]] = True
        positions = self.positions
        return View(
            f"{self.name}|{len(keep)}vps", self.country, self.store,
            positions[kept[self.store.record_vp[positions]]],
        )


def _build_view(
    paths: PathSet,
    kind: str,
    country: str | None,
    keep: Callable[[PathRecord], bool] | None,
    tracer: AnyTracer,
) -> View:
    """Construct a view by testing every record, under a ``views``
    span; record its size/VP distributions (VP counting only runs when
    tracing is on — it is pure telemetry, never on the disabled
    path)."""
    name = kind if country is None else f"{kind}:{country}"
    with tracer.span(
        "views", kind=kind, country=country, input=len(paths),
    ) as span:
        positions = None if keep is None else [
            position for position, record in enumerate(paths.records)
            if keep(record)
        ]
        view = View(name, country, paths.store(), positions)
        span.set(output=len(view))
        if tracer.enabled:
            tracer.metrics.histogram("views.size").observe(len(view))
            tracer.metrics.histogram("views.vps").observe(len(view.vps()))
    return view


def national_view(
    paths: PathSet, country: str, tracer: AnyTracer = NULL_TRACER
) -> View:
    """Paths from in-country VPs to in-country prefixes (CCN/AHN input)."""
    return _build_view(
        paths, "national", country,
        lambda r: r.vp_country == country and r.prefix_country == country,
        tracer,
    )


def international_view(
    paths: PathSet, country: str, tracer: AnyTracer = NULL_TRACER
) -> View:
    """Paths from out-of-country VPs to in-country prefixes (CCI/AHI)."""
    return _build_view(
        paths, "international", country,
        lambda r: r.vp_country != country and r.prefix_country == country,
        tracer,
    )


def global_view(paths: PathSet, tracer: AnyTracer = NULL_TRACER) -> View:
    """Every sanitized path (CCG/AHG baselines)."""
    return _build_view(paths, "global", None, None, tracer)


def outbound_view(
    paths: PathSet, country: str, tracer: AnyTracer = NULL_TRACER
) -> View:
    """Paths from in-country VPs to out-of-country prefixes.

    The paper's §7 names "a metric that characterizes paths *out of* a
    country" as future work; this view is its input — how the country
    reaches the rest of the world. Feeding it to the cone/hegemony
    metrics yields CCO/AHO, the outbound analogues of CCI/AHI.
    """
    return _build_view(
        paths, "outbound", country,
        lambda r: r.vp_country == country and r.prefix_country != country,
        tracer,
    )


def destination_view(paths: PathSet, origins: Iterable[int]) -> View:
    """Paths toward prefixes originated by the given ASes, from all VPs.

    This is the AHC selector: IHR keys on the *origin AS's registration
    country*, not on where the prefix geolocates (§1.2.1).
    """
    wanted = frozenset(origins)
    return _build_view(
        paths, f"destination:{len(wanted)}ases", None,
        lambda r: r.origin in wanted, NULL_TRACER,
    )
