"""The Table-1 sanitization pipeline.

Converts raw RIB records into a clean :class:`PathSet`, rejecting (in
this order, so categories stay disjoint as in the paper's Table 1):

1. **unstable** — the prefix was not present in all daily RIBs;
2. **unallocated** — the path mentions an ASN the (simulated) IANA has
   not assigned;
3. **loop** — an ASN repeats non-adjacently (``A C A``);
4. **poisoned** — a non-top-tier AS sits between two top-tier ASes;
5. **vp_no_location** — the VP peers with a multi-hop collector, so its
   country is untrusted;
6. **covered** — the prefix is entirely covered by more specifics (the
   paper removes these while preparing geolocation);
7. **prefix_no_location** — geolocation reached no majority country.

Surviving paths are *cleaned*: prepending is collapsed and IXP
route-server ASNs are removed (neither rejects the path).

All counts are reported in announcement units (one VP × prefix × day),
matching the paper's accounting of 248M announcements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Protocol, Sequence

from repro.bgp.announcement import RibRecord
from repro.bgp.collectors import VantagePoint
from repro.geo.prefix_geo import PrefixGeolocation
from repro.geo.vp_geo import VPGeolocator
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix, parse_address
from repro.obs.trace import NULL_TRACER, AnyTracer

if TYPE_CHECKING:  # perf imports core at runtime; the cycle is type-only
    from repro.perf.pathstore import PathStore


class RelationshipOracle(Protocol):
    """Anything that can label the relationship of an adjacent AS pair.

    Returns ``"p2c"`` (left provides transit to right), ``"c2p"``,
    ``"p2p"``, or ``None`` when unknown — the signature of
    :meth:`repro.topology.model.ASGraph.relationship` and of the
    inferred-relationship table.
    """

    def relationship(self, left: int, right: int) -> str | None:
        """Label for the (left, right) adjacency, or ``None``."""
        ...


@dataclass(frozen=True, slots=True)
class PathRecord:
    """One sanitized observation: a located VP's clean path to a
    geolocated prefix."""

    vp: VantagePoint
    vp_country: str
    prefix: Prefix
    prefix_country: str
    path: ASPath
    addresses: int

    @property
    def origin(self) -> int:
        """Origin AS of the prefix."""
        return self.path.origin


#: Rejection categories in evaluation order (Table 1 rows).
REJECT_CATEGORIES: tuple[str, ...] = (
    "unstable",
    "unallocated",
    "loop",
    "poisoned",
    "vp_no_location",
    "covered",
    "prefix_no_location",
)


@dataclass
class FilterReport:
    """Announcement-unit accounting of the sanitization pass."""

    total: int = 0
    accepted: int = 0
    rejected: dict[str, int] = field(
        default_factory=lambda: {category: 0 for category in REJECT_CATEGORIES}
    )
    #: first few rejected records per category, for provenance/debugging
    samples: dict[str, list[RibRecord]] = field(default_factory=dict)
    #: how many sample records to retain per category
    sample_limit: int = 5

    def note_rejection(self, category: str, record: RibRecord, weight: int) -> None:
        """Account one rejected record (and keep it as a sample)."""
        self.rejected[category] += weight
        bucket = self.samples.setdefault(category, [])
        if len(bucket) < self.sample_limit:
            bucket.append(record)

    def rejected_total(self) -> int:
        """All rejected announcements."""
        return sum(self.rejected.values())

    def pct(self, count: int) -> float:
        """Percentage of the total input."""
        return 100.0 * count / self.total if self.total else 0.0

    def as_rows(self) -> list[tuple[str, int, float]]:
        """(label, count, percent) rows in the paper's Table 1 layout."""
        rows: list[tuple[str, int, float]] = [
            ("rejected", self.rejected_total(), self.pct(self.rejected_total()))
        ]
        for category in REJECT_CATEGORIES:
            count = self.rejected[category]
            rows.append((category, count, self.pct(count)))
        rows.append(("accepted", self.accepted, self.pct(self.accepted)))
        rows.append(("total", self.total, 100.0 if self.total else 0.0))
        return rows

    def render(self) -> str:
        """A printable Table-1 style summary."""
        lines = [f"{'category':<20}{'announcements':>15}{'share':>10}"]
        for label, count, pct in self.as_rows():
            indent = "  " if label in REJECT_CATEGORIES else ""
            lines.append(f"{indent}{label:<20}{count:>13}{pct:>9.2f}%")
        return "\n".join(lines)


@dataclass(init=False)
class PathSet:
    """The sanitized, deduplicated input to every ranking metric.

    ``records`` is a plain list for the in-memory backend; the
    out-of-core path (:func:`repro.perf.spill.sanitize_to_store`) hands
    in a read-only lazy sequence over mapped columns, together with the
    store it reads — every consumer treats ``records`` as an immutable
    ``Sequence`` either way.
    """

    records: Sequence[PathRecord]
    report: FilterReport
    #: the columnar mirror of the records (see :meth:`store`); derived
    #: state, excluded from equality
    _store: "PathStore | None" = field(repr=False, compare=False)

    def __init__(
        self,
        records: Sequence[PathRecord],
        report: FilterReport,
        store: "PathStore | None" = None,
    ) -> None:
        self.records = records
        self.report = report
        self._store = store

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[PathRecord]:
        return iter(self.records)

    def store(self) -> "PathStore":
        """The records as a :class:`repro.perf.PathStore`: the one
        handed in, else built on first use. Every columnar consumer —
        the path index's pair buckets and the cone, CTI and hegemony
        kernels — shares it. The records must not be mutated after
        this."""
        if self._store is None:
            from repro.perf.pathstore import PathStore

            self._store = PathStore(self.records)
        return self._store

    def vps(self) -> list[VantagePoint]:
        """Distinct VPs present, ordered by IP (numeric, not lexical)."""
        seen: dict[str, VantagePoint] = {}
        for record in self.records:
            seen.setdefault(record.vp.ip, record.vp)
        return [seen[ip] for ip in sorted(seen, key=parse_address)]

    def countries(self) -> list[str]:
        """Destination countries present, sorted."""
        return sorted({record.prefix_country for record in self.records})

    def country_addresses(self) -> dict[str, int]:
        """Distinct geolocated addresses per destination country."""
        per_country: dict[str, dict[Prefix, int]] = {}
        for record in self.records:
            per_country.setdefault(record.prefix_country, {})[record.prefix] = (
                record.addresses
            )
        return {
            country: sum(addresses.values())
            for country, addresses in sorted(per_country.items())
        }


def is_poisoned(path: ASPath, clique: frozenset[int]) -> bool:
    """Whether a non-clique AS sits between two clique ASes (paper §3.1)."""
    asns = path.collapse_prepending().asns
    for index in range(1, len(asns) - 1):
        if (
            asns[index] not in clique
            and asns[index - 1] in clique
            and asns[index + 1] in clique
        ):
            return True
    return False


def sanitize(
    records: Iterable[RibRecord],
    clique: frozenset[int],
    is_allocated: Callable[[int], bool],
    route_servers: frozenset[int],
    vp_geo: VPGeolocator,
    prefix_geo: PrefixGeolocation,
    tracer: AnyTracer = NULL_TRACER,
) -> PathSet:
    """Run the full Table-1 pipeline over deduplicated RIB records,
    collecting the accepted records in a list (through
    :func:`sanitize_into`, which owns the span and counters)."""
    return sanitize_into(
        lambda accept, report: PathSet(list(accept(records)), report),
        clique, is_allocated, route_servers, vp_geo, prefix_geo, tracer,
    )


def sanitize_into(
    collect: Callable[
        [Callable[[Iterable[RibRecord]], Iterator[PathRecord]], FilterReport],
        PathSet,
    ],
    clique: frozenset[int],
    is_allocated: Callable[[int], bool],
    route_servers: frozenset[int],
    vp_geo: VPGeolocator,
    prefix_geo: PrefixGeolocation,
    tracer: AnyTracer = NULL_TRACER,
) -> PathSet:
    """Run the Table-1 pass for either store backend — the one place
    the ``sanitize`` span and counters are emitted.

    ``collect(accept, report)`` builds the :class:`PathSet`: ``accept``
    runs :func:`sanitize_stream` over the input records it is given,
    accounting them in ``report``. :func:`sanitize` collects a list;
    :func:`repro.perf.spill.sanitize_to_store` feeds a spill writer.

    ``tracer`` wraps the pass in a ``sanitize`` span and mirrors the
    returned set's :class:`FilterReport` into ``sanitize.input`` /
    ``sanitize.accepted`` / ``sanitize.dropped.<category>`` counters —
    the aggregation happens in the report either way, so tracing adds
    nothing to the per-record loop.
    """
    with tracer.span("sanitize") as span:
        report = FilterReport()

        def accept(records: Iterable[RibRecord]) -> Iterator[PathRecord]:
            return sanitize_stream(
                records, clique, is_allocated, route_servers, vp_geo,
                prefix_geo, report,
            )

        path_set = collect(accept, report)
        # a reopened spill carries its manifest's report, not ``report``
        final = path_set.report
        span.set(
            input=final.total, output=final.accepted,
            records=len(path_set.records),
        )
        metrics = tracer.metrics
        metrics.counter("sanitize.input").inc(final.total)
        metrics.counter("sanitize.accepted").inc(final.accepted)
        for category in REJECT_CATEGORIES:
            metrics.counter(f"sanitize.dropped.{category}").inc(
                final.rejected[category]
            )
    return path_set


def _check_path(
    path: ASPath,
    clique: frozenset[int],
    allocated: dict[int, bool],
    is_allocated: Callable[[int], bool],
    route_servers: frozenset[int],
) -> tuple[str | None, ASPath | None]:
    """The path-only half of the Table-1 pipeline for one path:
    ``(reject_category, None)`` or ``(None, cleaned_path)``.

    Exactly the unallocated → loop → poisoned → clean sequence of the
    per-record loop, with one prepending collapse shared by all three
    steps (``has_loop``/``is_poisoned``/clean each used to collapse on
    their own) and per-ASN allocation verdicts memoised in
    ``allocated`` — the registry answer for an ASN never changes within
    one pass.
    """
    for asn in path.asns:
        verdict = allocated.get(asn)
        if verdict is None:
            verdict = allocated[asn] = bool(is_allocated(asn))
        if not verdict:
            return ("unallocated", None)
    collapsed = path.collapse_prepending()
    asns = collapsed.asns
    if len(set(asns)) != len(asns):
        return ("loop", None)
    if not clique.isdisjoint(asns):
        for index in range(1, len(asns) - 1):
            if (
                asns[index] not in clique
                and asns[index - 1] in clique
                and asns[index + 1] in clique
            ):
                return ("poisoned", None)
    if route_servers and not route_servers.isdisjoint(asns):
        collapsed = collapsed.without(route_servers)
    return (None, collapsed)


def sanitize_stream(
    records: Iterable[RibRecord],
    clique: frozenset[int],
    is_allocated: Callable[[int], bool],
    route_servers: frozenset[int],
    vp_geo: VPGeolocator,
    prefix_geo: PrefixGeolocation,
    report: FilterReport,
) -> Iterator[PathRecord]:
    """The Table-1 pass as a generator of accepted records.

    Yields each surviving :class:`PathRecord` as soon as its input
    record has been judged, mutating ``report`` as a side effect — the
    streaming protocol the out-of-core spill ingestion
    (:mod:`repro.perf.spill`) consumes without ever holding the record
    list. :func:`sanitize_into` hands it to both backends, so they are
    value-identical record for record.

    A consumer that checkpoints mid-stream may rely on this invariant:
    whenever a record is yielded, ``report`` accounts for exactly the
    input records consumed so far (the per-entity memos are pure, so a
    resumed pass re-derives identical verdicts).
    """
    # Per-entity memos: path verdicts repeat across records sharing a
    # path object/value, VP location depends only on the collector,
    # and each prefix resolves its (covered, country, addresses) fate
    # once. All three underliers are pure within one pass.
    path_verdicts: dict[ASPath, tuple[str | None, ASPath | None]] = {}
    allocated: dict[int, bool] = {}
    collector_country: dict[str, str | None] = {}
    prefix_fate: dict[Prefix, tuple[str | None, str | None, int]] = {}
    covered = prefix_geo.covered
    owned = prefix_geo.owned_addresses
    for record in records:
        weight = record.days_present
        report.total += weight
        if not record.stable:
            report.note_rejection("unstable", record, weight)
            continue
        path = record.path
        verdict = path_verdicts.get(path)
        if verdict is None:
            verdict = path_verdicts[path] = _check_path(
                path, clique, allocated, is_allocated, route_servers
            )
        category, cleaned = verdict
        if category is not None:
            report.note_rejection(category, record, weight)
            continue
        vp_country = collector_country.get(record.vp.collector, "")
        if vp_country == "":
            vp_country = vp_geo.country(record.vp)
            collector_country[record.vp.collector] = vp_country
        if vp_country is None:
            report.note_rejection("vp_no_location", record, weight)
            continue
        prefix = record.prefix
        fate = prefix_fate.get(prefix)
        if fate is None:
            if prefix in covered:
                fate = ("covered", None, 0)
            else:
                country = prefix_geo.country(prefix)
                fate = (
                    ("prefix_no_location", None, 0) if country is None
                    else (None, country, owned.get(prefix, 0))
                )
            prefix_fate[prefix] = fate
        prefix_category, prefix_country, addresses = fate
        if prefix_category is not None:
            report.note_rejection(prefix_category, record, weight)
            continue
        assert cleaned is not None and prefix_country is not None
        report.accepted += weight
        yield PathRecord(
            vp=record.vp,
            vp_country=vp_country,
            prefix=prefix,
            prefix_country=prefix_country,
            path=cleaned,
            addresses=addresses,
        )
