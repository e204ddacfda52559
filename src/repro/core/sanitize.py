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
route-server ASNs are removed (neither rejects the path). A path that
route-server removal would empty raises
:class:`~repro.net.aspath.ASPathError` once a stable record reaches it.

All counts are reported in announcement units (one VP × prefix × day),
matching the paper's accounting of 248M announcements.

**One columnar judge.** Each rule depends on one entity only: the
record (1), its path (2–4), its VP's collector (5) or its prefix
(6, 7). :class:`Judge` therefore takes records as
:class:`~repro.bgp.announcement.RecordWindow` blocks — int64 VP,
prefix and path ids over shared entity tables — and computes each
verdict once per distinct entity the pass reaches: the path rules in
one numpy pass over a flat token column of the window's new paths
(registry answers once per distinct ASN), VP locations once per
collector, prefix fates once per prefix. Stability is a per-row mask,
each row takes the code of its first failing rule, and the window's
:class:`FilterReport` counts come from one ``np.bincount`` weighted by
days. An entity is judged only when a row reaches its rule, so the
registry, VP and prefix lookups see exactly the entities a per-record
pass would, and the verdicts are the per-record definition's.

Three drivers share the judge: :func:`sanitize` / :func:`sanitize_windows`
(an in-memory store's columns, no record objects),
:func:`sanitize_stream` (a generator of accepted records) and
:func:`repro.perf.spill.sanitize_to_store` (a spill directory). The
record-taking entry points cut their input into windows with
:func:`~repro.bgp.announcement.record_windows`; the pipeline hands in
:meth:`~repro.bgp.rib.RibSeries.windows` directly, so no
:class:`~repro.bgp.announcement.RibRecord` is ever built on its way to
the store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Iterable, Iterator, Protocol, Sequence,
)

import numpy as np

from repro.bgp.announcement import (
    RecordTables,
    RecordWindow,
    RibRecord,
    record_windows,
)
from repro.bgp.collectors import VantagePoint
from repro.geo.prefix_geo import PrefixGeolocation
from repro.geo.vp_geo import VPGeolocator
from repro.net.aspath import ASPath, PathColumns, dense_codes, runs
from repro.net.prefix import Prefix, parse_address
from repro.obs.trace import NULL_TRACER, AnyTracer

if TYPE_CHECKING:  # perf imports core at runtime; the cycle is type-only
    from repro.perf.pathstore import ColumnBuilder, PathStore


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

    def note_window(self, codes: np.ndarray, window: RecordWindow) -> None:
        """Account one judged window. ``codes[i]`` is 0 when row ``i``
        was accepted and ``1 + REJECT_CATEGORIES.index(category)`` when
        it was rejected; each row weighs its days present. The first
        rejected rows of a category, in input order, become its
        samples until it holds ``sample_limit``."""
        counts = np.bincount(
            codes, weights=window.days, minlength=len(REJECT_CATEGORIES) + 1
        )
        self.total += int(window.days.sum())
        self.accepted += int(counts[0])
        firsts = []
        for code, category in enumerate(REJECT_CATEGORIES, 1):
            self.rejected[category] += int(counts[code])
            room = self.sample_limit - len(self.samples.get(category, ()))
            if room > 0:
                rows = np.flatnonzero(codes == code)[:room]
                if len(rows):
                    firsts.append((int(rows[0]), category, rows))
        # categories enter ``samples`` in the order of their first rejection
        for _, category, rows in sorted(firsts, key=lambda first: first[0]):
            self.samples.setdefault(category, []).extend(
                window.record(row) for row in rows.tolist()
            )

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

    The pipeline's sets (either backend) hold their rows in a
    :class:`~repro.perf.pathstore.PathStore` and hand in its record
    façade as ``records``; a set built by hand from a record list
    builds its store over them on first use. Every consumer treats
    ``records`` as an immutable ``Sequence`` either way.
    """

    records: Sequence[PathRecord]
    report: FilterReport
    #: the columnar form of the records (see :meth:`store`); derived
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
        the path index's pair buckets, the views, and the cone, CTI and
        hegemony kernels — shares it. The records must not be mutated
        after this."""
        if self._store is None:
            from repro.perf.pathstore import PathStore

            self._store = PathStore(self.records)
        return self._store

    def vps(self) -> list[VantagePoint]:
        """Distinct VPs present, ordered by IP (numeric, not lexical)."""
        vps = [vp for vp, _ in self.store().vp_table]
        return sorted(vps, key=lambda vp: parse_address(vp.ip))

    def countries(self) -> list[str]:
        """Destination countries present, sorted."""
        return sorted({country for _, country, _ in self.store().prefix_table})

    def country_addresses(self) -> dict[str, int]:
        """Distinct geolocated addresses per destination country."""
        per_country: dict[str, int] = {}
        for _, country, addresses in self.store().prefix_table:
            per_country[country] = per_country.get(country, 0) + addresses
        return dict(sorted(per_country.items()))


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


#: a row's code: 0 when accepted, else ``1 + index`` of its category
_UNSTABLE, _UNALLOCATED, _LOOP, _POISONED = 1, 2, 3, 4
_VP_NO_LOCATION, _COVERED, _PREFIX_NO_LOCATION = 5, 6, 7
#: a path's code when it passes rules 2–4 but route-server removal
#: empties it (an ASPathError once a stable record reaches it)
_EMPTIED = 8
#: an entity's code before any row has reached its rule
_UNJUDGED = -1


def _grown(column: np.ndarray, size: int, fill: Any) -> np.ndarray:
    """``column`` with room for ``size`` entities (doubling, so a
    growing table costs amortised O(1) per entity), new cells
    ``fill``."""
    if len(column) >= size:
        return column
    grown = np.full(max(size, 2 * len(column)), fill, dtype=column.dtype)
    grown[:len(column)] = column
    return grown


def _passing(
    codes: np.ndarray, rows: np.ndarray, ids: np.ndarray, verdicts: np.ndarray
) -> np.ndarray:
    """Give each of ``rows`` its entity's verdict (``ids`` per row,
    ``verdicts`` per entity) as its code; the rows that pass."""
    verdict = verdicts[ids[rows]]
    codes[rows] = verdict
    return rows[verdict == 0]


def _path_rules(
    tokens: np.ndarray,
    lengths: np.ndarray,
    allocated: np.ndarray,
    asn_code: np.ndarray,
    inside: np.ndarray,
    server: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rules 2–4 and the cleaning for a batch of paths, vectorized.

    ``tokens`` is the paths' ASNs concatenated (``lengths`` per path);
    per token, ``allocated`` is the registry's answer, ``asn_code`` a
    dense code of its ASN, ``inside`` whether it is a clique AS and
    ``server`` whether it is a route server. Returns per path its code
    (0 passes, else the first failing rule, or :data:`_EMPTIED`) and
    its clean length, and per token whether it survives cleaning.
    """
    count = len(lengths)
    owner = np.repeat(np.arange(count, dtype=np.int64), lengths)
    starts = np.cumsum(lengths) - lengths
    unallocated = np.zeros(count, dtype=bool)
    unallocated[owner[~allocated]] = True
    # prepending collapse: keep the first token of every run
    kept = np.ones(len(tokens), dtype=bool)
    kept[1:] = tokens[1:] != tokens[:-1]
    kept[starts] = True
    hop_owner, hop_code, hop_inside = owner[kept], asn_code[kept], inside[kept]
    # loop: one ASN twice on a collapsed path
    width = int(asn_code.max()) + 1 if len(asn_code) else 1
    pairs = np.sort(hop_owner * width + hop_code)
    repeated = pairs[1:][pairs[1:] == pairs[:-1]]
    loop = np.zeros(count, dtype=bool)
    loop[repeated // width] = True
    # poisoned: a non-clique hop between two clique hops of one path
    poisoned = np.zeros(count, dtype=bool)
    if len(hop_owner) >= 3:
        middle = (
            ~hop_inside[1:-1] & hop_inside[:-2] & hop_inside[2:]
            & (hop_owner[:-2] == hop_owner[2:])
        )
        poisoned[hop_owner[1:-1][middle]] = True
    # cleaning drops route servers from the collapsed path
    kept[kept] = ~server[kept]
    clean_lengths = np.bincount(owner[kept], minlength=count)
    codes = np.select(
        [unallocated, loop, poisoned, clean_lengths == 0],
        [_UNALLOCATED, _LOOP, _POISONED, _EMPTIED],
        0,
    ).astype(np.int8)
    return codes, clean_lengths, kept


class Judge:
    """The Table-1 verdicts of one pass over record windows.

    Call it on each window in input order: it judges every entity a
    row reaches for the first time, accounts the window in ``report``
    and returns the accepted rows. Every window of a pass must share
    one :class:`~repro.bgp.announcement.RecordTables` (which may grow
    between windows). Per table entry it keeps the verdict and what an
    accepted record needs: the clean path (as token columns: the
    tokens ``_path_rules`` keeps, at ``clean_offset``/``clean_length``
    per table path), the VP's country, the prefix's country and
    addresses.
    """

    def __init__(
        self,
        clique: frozenset[int],
        is_allocated: Callable[[int], bool],
        route_servers: frozenset[int],
        vp_geo: VPGeolocator,
        prefix_geo: PrefixGeolocation,
        report: FilterReport,
        tracer: AnyTracer = NULL_TRACER,
    ) -> None:
        self.report = report
        self._clique = np.asarray(sorted(clique), dtype=np.int64)
        self._route_servers = route_servers
        self._servers = np.asarray(sorted(route_servers), dtype=np.int64)
        self._is_allocated = is_allocated
        self._vp_geo = vp_geo
        self._prefix_geo = prefix_geo
        self._tracer = tracer
        self._tables: RecordTables | None = None
        #: registry answers so far, by ascending ASN
        self._asns = np.empty(0, dtype=np.int64)
        self._allocated = np.empty(0, dtype=bool)
        #: trusted country per collector name (``None``: multi-hop)
        self._located: dict[str, str | None] = {}
        self.path_code = np.empty(0, dtype=np.int8)
        #: every passing path's clean tokens, at its offset and length
        self._clean = PathColumns()
        self.clean_offset = np.empty(0, dtype=np.int64)
        self.clean_length = np.empty(0, dtype=np.int64)
        self.vp_code = np.empty(0, dtype=np.int8)
        self.vp = np.empty(0, dtype=object)
        self.vp_country = np.empty(0, dtype=object)
        self.prefix_code = np.empty(0, dtype=np.int8)
        self.prefix = np.empty(0, dtype=object)
        self.prefix_country = np.empty(0, dtype=object)
        self.addresses = np.empty(0, dtype=object)

    def __call__(self, window: RecordWindow) -> np.ndarray:
        """Judge one window; returns its accepted rows, ascending."""
        self._bind(window.tables)
        tracer = self._tracer
        codes = np.where(
            window.days == window.total_days, 0, _UNSTABLE
        ).astype(np.int8)
        rows = np.flatnonzero(codes == 0)
        with tracer.span("sanitize.paths") as span:
            fresh = self._fresh(window.path[rows], self.path_code)
            if len(fresh):
                self._judge_paths(fresh)
            span.set(
                input=len(fresh),
                output=int(np.count_nonzero(self.path_code[fresh] == 0)),
            )
        emptied = rows[self.path_code[window.path[rows]] == _EMPTIED]
        if len(emptied):
            # raises the per-record definition's own error, for the
            # first such row
            path = window.tables.paths[window.path[emptied[0]]]
            path.collapse_prepending().without(self._route_servers)
        rows = _passing(codes, rows, window.path, self.path_code)
        with tracer.span("sanitize.fates", input=len(rows)) as span:
            for ids, verdicts, judge in (
                (window.vp, self.vp_code, self._judge_vps),
                (window.prefix, self.prefix_code, self._judge_prefixes),
            ):
                fresh = self._fresh(ids[rows], verdicts)
                if len(fresh):
                    judge(fresh)
                rows = _passing(codes, rows, ids, verdicts)
            span.set(output=len(rows))
        self.report.note_window(codes, window)
        return rows

    def clean_paths(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The clean tokens of the passing table paths at ``ids``,
        concatenated, and their lengths."""
        return runs(
            self._clean.tokens, self.clean_offset, self.clean_length, ids
        )

    def records(self, window: RecordWindow, rows: np.ndarray) -> list[PathRecord]:
        """The accepted records at ``rows`` (judged by this judge),
        built positionally from gathered entity columns, each distinct
        clean path built once."""
        vp, prefix, path = window.vp[rows], window.prefix[rows], window.path[rows]
        distinct, inverse = np.unique(path, return_inverse=True)
        clean = PathColumns(*self.clean_paths(distinct)).objects(inverse)
        return list(map(
            PathRecord,
            self.vp[vp].tolist(), self.vp_country[vp].tolist(),
            self.prefix[prefix].tolist(), self.prefix_country[prefix].tolist(),
            clean, self.addresses[prefix].tolist(),
        ))

    def store_rows(
        self, builder: "ColumnBuilder", window: RecordWindow, rows: np.ndarray
    ) -> None:
        """Append the accepted rows to ``builder``, keyed on this pass's
        table ids."""
        builder.extend(
            window.vp[rows], window.prefix[rows], window.path[rows],
            lambda ids: zip(self.vp[ids].tolist(), self.vp_country[ids].tolist()),
            lambda ids: zip(
                self.prefix[ids].tolist(), self.prefix_country[ids].tolist(),
                self.addresses[ids].tolist(),
            ),
            self.clean_paths,
        )

    # -- per-entity verdicts -----------------------------------------------

    def _bind(self, tables: RecordTables) -> None:
        if self._tables is None:
            self._tables = tables
        elif tables is not self._tables:
            raise ValueError("one pass judges windows over one set of tables")
        paths, vps, prefixes = (
            len(tables.paths), len(tables.vps), len(tables.prefixes)
        )
        self.path_code = _grown(self.path_code, paths, _UNJUDGED)
        self.clean_offset = _grown(self.clean_offset, paths, 0)
        self.clean_length = _grown(self.clean_length, paths, 0)
        self.vp_code = _grown(self.vp_code, vps, _UNJUDGED)
        self.vp = _grown(self.vp, vps, None)
        self.vp_country = _grown(self.vp_country, vps, None)
        self.prefix_code = _grown(self.prefix_code, prefixes, _UNJUDGED)
        self.prefix = _grown(self.prefix, prefixes, None)
        self.prefix_country = _grown(self.prefix_country, prefixes, None)
        self.addresses = _grown(self.addresses, prefixes, 0)

    @staticmethod
    def _fresh(ids: np.ndarray, verdicts: np.ndarray) -> np.ndarray:
        """The distinct ``ids`` not judged yet, ascending: the ids are
        marked in a table as long as ``verdicts``, then scanned."""
        marked = np.zeros(len(verdicts), dtype=bool)
        marked[ids] = True
        marked &= verdicts == _UNJUDGED
        return np.flatnonzero(marked)

    def _registry(self, asns: np.ndarray) -> np.ndarray:
        """``is_allocated`` per ASN of the ascending ``asns``, asking the
        registry (with a Python int) only about ASNs it has not
        answered for yet."""
        known = self._asns
        at = np.searchsorted(known, asns)
        hit = at < len(known)
        hit[hit] = known[at[hit]] == asns[hit]
        new = asns[~hit]
        if len(new):
            answers = np.fromiter(
                (bool(self._is_allocated(asn)) for asn in new.tolist()),
                dtype=bool, count=len(new),
            )
            merged = np.concatenate((known, new))
            order = np.argsort(merged, kind="stable")
            self._asns = merged[order]
            self._allocated = np.concatenate((self._allocated, answers))[order]
            at = np.searchsorted(self._asns, asns)
        return self._allocated[at]

    def _judge_paths(self, ids: np.ndarray) -> None:
        """Rules 2–4 and the clean tokens for the paths at ``ids``,
        gathered from the table's token columns."""
        assert self._tables is not None
        tokens, lengths = self._tables.paths.columns(ids)
        distinct, asn_code = dense_codes(tokens)
        codes, clean_lengths, kept = _path_rules(
            tokens, lengths,
            self._registry(distinct)[asn_code], asn_code,
            np.isin(distinct, self._clique)[asn_code],
            np.isin(distinct, self._servers)[asn_code],
        )
        self.path_code[ids] = codes
        passed = codes == 0
        clean = self._clean
        self.clean_offset[ids[passed]] = len(clean.tokens) + (
            np.cumsum(clean_lengths[passed]) - clean_lengths[passed]
        )
        self.clean_length[ids[passed]] = clean_lengths[passed]
        clean.extend(
            tokens[kept & np.repeat(passed, lengths)], clean_lengths[passed]
        )

    def _judge_vps(self, ids: np.ndarray) -> None:
        """Rule 5 for the VPs at ``ids``, once per collector."""
        assert self._tables is not None
        table = self._tables.vps
        located = self._located
        for vid in ids.tolist():
            vp = table[vid]
            if vp.collector not in located:
                located[vp.collector] = self._vp_geo.country(vp)
            country = located[vp.collector]
            self.vp[vid] = vp
            self.vp_country[vid] = country
            self.vp_code[vid] = _VP_NO_LOCATION if country is None else 0

    def _judge_prefixes(self, ids: np.ndarray) -> None:
        """Rules 6 and 7 for the prefixes at ``ids``."""
        assert self._tables is not None
        table = self._tables.prefixes
        geo = self._prefix_geo
        for fid in ids.tolist():
            prefix = table[fid]
            self.prefix[fid] = prefix
            if prefix in geo.covered:
                self.prefix_code[fid] = _COVERED
                continue
            country = geo.country(prefix)
            if country is None:
                self.prefix_code[fid] = _PREFIX_NO_LOCATION
                continue
            self.prefix_code[fid] = 0
            self.prefix_country[fid] = country
            self.addresses[fid] = geo.owned_addresses.get(prefix, 0)


def sanitize(
    records: Iterable[RibRecord],
    clique: frozenset[int],
    is_allocated: Callable[[int], bool],
    route_servers: frozenset[int],
    vp_geo: VPGeolocator,
    prefix_geo: PrefixGeolocation,
    tracer: AnyTracer = NULL_TRACER,
) -> PathSet:
    """Run the full Table-1 pipeline over deduplicated RIB records:
    :func:`sanitize_windows` over the records cut into windows."""
    return sanitize_windows(
        record_windows(records),
        clique, is_allocated, route_servers, vp_geo, prefix_geo, tracer,
    )


def sanitize_windows(
    windows: Iterable[RecordWindow],
    clique: frozenset[int],
    is_allocated: Callable[[int], bool],
    route_servers: frozenset[int],
    vp_geo: VPGeolocator,
    prefix_geo: PrefixGeolocation,
    tracer: AnyTracer = NULL_TRACER,
) -> PathSet:
    """The Table-1 pass over record windows into an in-memory
    :class:`PathSet`: its :class:`~repro.perf.pathstore.PathStore`'s
    columns are filled window by window from the accepted rows, and
    its records are the store's façade — no record object is built."""
    from repro.perf.pathstore import ColumnBuilder, PathStore

    def collect(judge: Judge) -> PathSet:
        builder = ColumnBuilder()
        for window in windows:
            rows = judge(window)
            with tracer.span("sanitize.rows", input=len(rows)) as span:
                judge.store_rows(builder, window, rows)
                span.set(output=len(rows))
        store = PathStore(builder=builder)
        return PathSet(store.records, judge.report, store)

    return sanitize_into(
        collect, clique, is_allocated, route_servers, vp_geo, prefix_geo, tracer
    )


def sanitize_into(
    collect: Callable[[Judge], PathSet],
    clique: frozenset[int],
    is_allocated: Callable[[int], bool],
    route_servers: frozenset[int],
    vp_geo: VPGeolocator,
    prefix_geo: PrefixGeolocation,
    tracer: AnyTracer = NULL_TRACER,
) -> PathSet:
    """Run the Table-1 pass for either store backend — the one place
    the ``sanitize`` span and counters are emitted.

    ``collect(judge)`` feeds its windows to the :class:`Judge` and
    builds the :class:`PathSet`: :func:`sanitize_windows` fills a
    memory store's builder;
    :func:`repro.perf.spill.spill_windows` feeds a spill writer.

    ``tracer`` wraps the pass in a ``sanitize`` span — with
    ``sanitize.paths`` (distinct paths judged), ``sanitize.fates`` (VP
    and prefix rules) and ``sanitize.rows`` (store rows)
    children per window — and mirrors the returned set's
    :class:`FilterReport` into ``sanitize.input`` /
    ``sanitize.accepted`` / ``sanitize.dropped.<category>`` counters.
    """
    with tracer.span("sanitize") as span:
        judge = Judge(
            clique, is_allocated, route_servers, vp_geo, prefix_geo,
            FilterReport(), tracer,
        )
        path_set = collect(judge)
        # a reopened spill carries its manifest's report, not the judge's
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


def sanitize_stream(
    records: Iterable[RibRecord],
    clique: frozenset[int],
    is_allocated: Callable[[int], bool],
    route_servers: frozenset[int],
    vp_geo: VPGeolocator,
    prefix_geo: PrefixGeolocation,
    report: FilterReport,
) -> Iterator[PathRecord]:
    """The Table-1 pass as a generator of accepted records, accounting
    every input record in ``report``.

    It reads one whole window ahead
    (:data:`~repro.bgp.announcement.WINDOW` records): ``report``
    accounts for every record of a window before that window's first
    accepted record is yielded. A consumer that checkpoints must do so
    between windows — :func:`repro.perf.spill.sanitize_to_store` drives
    the judge itself and checkpoints at window ends.
    """
    judge = Judge(
        clique, is_allocated, route_servers, vp_geo, prefix_geo, report
    )
    for window in record_windows(records):
        yield from judge.records(window, judge(window))
