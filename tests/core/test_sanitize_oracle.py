"""The columnar Table-1 judge against a per-record oracle.

The oracle below is written straight from the seven rules in
``repro.core.sanitize``'s module docstring, one record at a time, the
way the paper states them. Random record streams — prepending,
non-adjacent repeats, clique / non-clique / clique triples,
route-server hops, unallocated ASNs, VPs on located and multi-hop
collectors, covered, unlocated and located prefixes, and records
missing from some daily RIBs — must come out of the judge exactly as
the oracle says: the same accepted records in the same order, the same
report counts and rejection samples, and an ``ASPathError`` on the same
inputs. Neither the window size nor the input order may matter beyond
what the rules say, and the store filled from the windows must equal
one built from the accepted records one by one — also when paths that
cleaning changes share their clean value with each other and with an
unchanged twin that comes windows later.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.announcement import RibRecord, record_windows
from repro.bgp.collectors import Collector, CollectorProject, CollectorSet
from repro.core.sanitize import (
    FilterReport,
    PathRecord,
    sanitize,
    sanitize_stream,
    sanitize_windows,
)
from repro.geo.database import GeoDatabase
from repro.geo.prefix_geo import geolocate_prefixes
from repro.geo.vp_geo import VPGeolocator
from repro.net.aspath import ASPath, ASPathError
from repro.net.prefix import Prefix
from repro.perf.pathstore import COLUMNS, PathStore

CLIQUE = frozenset({100, 101, 102})
ROUTE_SERVERS = frozenset({777, 778})
UNALLOCATED = frozenset({4_000_000, 64_999})
#: the ASNs a clean path is drawn from
CLEAN = sorted({1, 2, 3, 4, 5, 6} | CLIQUE)
#: what a drawn path may have planted in it
ANOMALIES = ("prepend", "repeat", "server", "unallocated", "triple")


def is_allocated(asn):
    return asn not in UNALLOCATED


def collectors():
    roster = CollectorSet()
    ams = roster.add(Collector("ams", CollectorProject.RIS, "NL"))
    nyc = roster.add(Collector("nyc", CollectorProject.ROUTEVIEWS, "US"))
    remote = roster.add(
        Collector("remote", CollectorProject.ROUTEVIEWS, "US", multihop=True)
    )
    return roster, [
        ams.add_vp("192.0.2.1", 1), ams.add_vp("192.0.2.2", 2),
        nyc.add_vp("198.51.100.1", 3), remote.add_vp("203.0.113.9", 9),
        remote.add_vp("203.0.113.10", 10),
    ]


ROSTER, VPS = collectors()
VP_GEO = VPGeolocator(ROSTER)


def geography():
    database = GeoDatabase()
    database.assign(Prefix.parse("10.0.0.0/8"), "US")
    database.assign(Prefix.parse("11.0.0.0/8"), "NL")
    database.assign(Prefix.parse("12.0.0.0/9"), "US")
    database.assign(Prefix.parse("12.128.0.0/9"), "CA")
    prefixes = [Prefix.parse(text) for text in (
        "10.0.0.0/16",     # located (US)
        "10.1.0.0/16",     # covered by the two /17s below
        "10.1.0.0/17",     # located (US)
        "10.1.128.0/17",   # located (US)
        "11.0.0.0/24",     # located (NL)
        "12.0.0.0/8",      # no majority country
    )]
    return geolocate_prefixes(prefixes, database), prefixes


PREFIX_GEO, PREFIXES = geography()
FILTERS = dict(
    clique=CLIQUE, is_allocated=is_allocated, route_servers=ROUTE_SERVERS,
    vp_geo=VP_GEO, prefix_geo=PREFIX_GEO,
)


@st.composite
def paths(draw):
    """A loop-free path with up to three anomalies planted in it —
    prepending, a repeated ASN (adjacent or not), a route-server hop,
    an unallocated ASN, a clique / non-clique / clique triple — or,
    now and then, a path of route servers only."""
    if draw(st.integers(0, 9)) == 0:
        servers = st.sampled_from(sorted(ROUTE_SERVERS))
        return ASPath(tuple(draw(st.lists(servers, min_size=1, max_size=3))))
    asns = draw(st.lists(st.sampled_from(CLEAN), min_size=1, max_size=6, unique=True))
    for kind in draw(st.lists(st.sampled_from(ANOMALIES), max_size=3)):
        at = draw(st.integers(0, len(asns)))
        if kind == "prepend":
            asns.insert(at, asns[min(at, len(asns) - 1)])
        elif kind == "repeat":
            asns.insert(at, draw(st.sampled_from(asns)))
        elif kind == "server":
            asns.insert(at, draw(st.sampled_from(sorted(ROUTE_SERVERS))))
        elif kind == "unallocated":
            asns.insert(at, draw(st.sampled_from(sorted(UNALLOCATED))))
        else:
            outside = draw(st.sampled_from(sorted(set(CLEAN) - CLIQUE)))
            asns[at:at] = [min(CLIQUE), outside, max(CLIQUE)]
    return ASPath(tuple(asns))


@st.composite
def record_streams(draw):
    """Records over a few shared paths (so verdicts are reused), each
    on a drawn VP and prefix, most of them present on every day."""
    shared = draw(st.lists(paths(), min_size=1, max_size=8))
    rows = draw(st.lists(
        st.tuples(
            st.sampled_from(VPS), st.sampled_from(PREFIXES),
            st.sampled_from(shared), st.sampled_from((1, 5)),
            st.integers(0, 4),
        ),
        max_size=40,
    ))
    return [
        RibRecord(vp, prefix, path, total - (missing == 0), total)
        for vp, prefix, path, total, missing in rows
    ]


#: the ASNs a twin's clean value is drawn from: outside the clique, so
#: no dirtied copy is poisoned
PLAIN = sorted(set(CLEAN) - CLIQUE)
#: located VPs and located prefixes, so most twin records are accepted
LOCATED_VPS = VPS[:3]
LOCATED_PREFIXES = [PREFIXES[at] for at in (0, 2, 3, 4)]


@st.composite
def dirtied(draw, value):
    """``value`` with one or two prepends or route-server hops planted:
    a path that cleans back to ``value`` unless a hop splits a prepend
    into a loop."""
    asns = list(value)
    for kind in draw(st.lists(
        st.sampled_from(("prepend", "server")), min_size=1, max_size=2
    )):
        at = draw(st.integers(0, len(asns)))
        if kind == "prepend":
            asns.insert(at, asns[min(at, len(asns) - 1)])
        else:
            asns.insert(at, draw(st.sampled_from(sorted(ROUTE_SERVERS))))
    return ASPath(tuple(asns))


@st.composite
def twin_streams(draw, twin=st.sampled_from(("before", "after", "never"))):
    """``(records, size)``: stable records, on located VPs and
    prefixes, whose paths are one clean value dirtied up to three ways
    and repeated, shuffled among a few other paths; the value's
    unchanged twin comes before them, after them or never; the stream
    is cut into windows of ``size`` rows."""
    value = tuple(draw(st.lists(
        st.sampled_from(PLAIN), min_size=1, max_size=5, unique=True
    )))
    variants = draw(st.lists(dirtied(value), min_size=1, max_size=3))
    others = paths().filter(lambda path: not set(path.asns) <= ROUTE_SERVERS)
    middle = draw(st.lists(st.sampled_from(variants), min_size=2, max_size=6))
    middle += draw(st.lists(others, max_size=6))
    middle = draw(st.permutations(middle))
    placed = draw(twin)
    stream = (
        [ASPath(value)] * (placed == "before") + middle
        + [ASPath(value)] * (placed == "after")
    )
    records = [
        RibRecord(
            draw(st.sampled_from(LOCATED_VPS)),
            draw(st.sampled_from(LOCATED_PREFIXES)), path, 5, 5,
        )
        for path in stream
    ]
    return records, draw(st.integers(1, len(records)))


def oracle(records):
    """The seven rules applied record by record: ``(accepted records,
    report)``; raises ``ASPathError`` at the first stable record whose
    otherwise clean path holds nothing but route servers."""
    report = FilterReport()
    accepted = []
    for record in records:
        report.total += record.days_present
        category = None
        asns = record.path.asns
        collapsed = [
            asn for index, asn in enumerate(asns)
            if index == 0 or asns[index - 1] != asn
        ]
        if record.days_present != record.total_days:
            category = "unstable"
        elif not all(is_allocated(asn) for asn in asns):
            category = "unallocated"
        elif len(set(collapsed)) != len(collapsed):
            category = "loop"
        elif any(
            collapsed[index] not in CLIQUE
            and collapsed[index - 1] in CLIQUE
            and collapsed[index + 1] in CLIQUE
            for index in range(1, len(collapsed) - 1)
        ):
            category = "poisoned"
        else:
            cleaned = [asn for asn in collapsed if asn not in ROUTE_SERVERS]
            if not cleaned:
                raise ASPathError(f"route servers empty {record.path}")
            collector = ROSTER.get(record.vp.collector)
            country = PREFIX_GEO.country_of.get(record.prefix)
            if collector.multihop:
                category = "vp_no_location"
            elif record.prefix in PREFIX_GEO.covered:
                category = "covered"
            elif country is None:
                category = "prefix_no_location"
            else:
                report.accepted += record.days_present
                accepted.append(PathRecord(
                    record.vp, collector.country, record.prefix, country,
                    ASPath(tuple(cleaned)),
                    PREFIX_GEO.owned_addresses[record.prefix],
                ))
        if category is not None:
            report.rejected[category] += record.days_present
            samples = report.samples.setdefault(category, [])
            if len(samples) < report.sample_limit:
                samples.append(record)
    return accepted, report


def outcome(run):
    """``run()``'s result, or the ``ASPathError`` type it raised."""
    try:
        return run()
    except ASPathError:
        return ASPathError


def same_store(store, expected):
    """``store`` holds ``expected``'s columns, side tables and paths."""
    for name in COLUMNS:
        assert getattr(store, name).tolist() == getattr(expected, name).tolist(), name
    assert store.paths == expected.paths
    assert store.vp_table == expected.vp_table
    assert store.prefix_table == expected.prefix_table


def same_report(got, expected):
    assert got.total == expected.total
    assert got.accepted == expected.accepted
    assert got.rejected == expected.rejected
    assert got.samples == expected.samples
    assert list(got.samples) == list(expected.samples)


@settings(max_examples=150, deadline=None)
@given(record_streams())
def test_judge_matches_the_per_record_rules(records):
    expected = outcome(lambda: oracle(records))
    got = outcome(lambda: sanitize(records, **FILTERS))
    if expected is ASPathError:
        assert got is ASPathError
        return
    accepted, report = expected
    assert got is not ASPathError
    assert got.records == accepted
    same_report(got.report, report)
    streamed = FilterReport()
    assert list(sanitize_stream(records, report=streamed, **FILTERS)) == accepted
    same_report(streamed, report)


@settings(max_examples=100, deadline=None)
@given(record_streams())
def test_window_size_changes_nothing(records):
    def run(size):
        return sanitize_windows(record_windows(records, size), **FILTERS)

    results = [
        outcome(lambda size=size: run(size))
        for size in (1, 7, 4096, max(len(records), 1))
    ]
    if any(result is ASPathError for result in results):
        assert all(result is ASPathError for result in results)
        return
    first = results[0]
    # the stores filled window by window equal one built record by record
    store = PathStore(first.records)
    for other in results:
        assert other.records == first.records
        same_report(other.report, first.report)
        columns = other.store()
        for name in COLUMNS:
            assert (
                getattr(columns, name).tolist() == getattr(store, name).tolist()
            ), name
        assert columns.paths == store.paths
        assert columns.vp_table == store.vp_table
        assert columns.prefix_table == store.prefix_table


@settings(max_examples=100, deadline=None)
@given(record_streams(), st.randoms(use_true_random=False))
def test_report_counts_ignore_input_order(records, rng):
    shuffled = list(records)
    rng.shuffle(shuffled)
    results = [outcome(lambda r=r: sanitize(r, **FILTERS)) for r in (records, shuffled)]
    if results[0] is ASPathError:
        assert results[1] is ASPathError
        return
    first, second = (result.report for result in results)
    assert (first.total, first.accepted, first.rejected) == (
        second.total, second.accepted, second.rejected
    )
    assert sorted(map(repr, results[0].records)) == sorted(
        map(repr, results[1].records)
    )


def test_route_server_only_path_raises_only_when_reached():
    vp = VPS[0]
    prefix = PREFIXES[0]
    only_servers = ASPath.of(777, 777, 778)
    unstable = RibRecord(vp, prefix, only_servers, 4, 5)
    assert sanitize([unstable], **FILTERS).report.rejected["unstable"] == 4
    with pytest.raises(ASPathError):
        sanitize([unstable, RibRecord(vp, prefix, only_servers, 5, 5)], **FILTERS)


@pytest.mark.parametrize("size", [1, 2, 3])
def test_a_cleaned_value_is_stored_once(size):
    """Route server 777's hop and a prepend both clean to ``1 2 3``,
    which the stream carries unchanged only windows later: the store
    holds it once, as one built from the accepted records does."""
    records = [
        RibRecord(VPS[0], PREFIXES[0], ASPath(asns), 5, 5)
        for asns in (
            (1, 1, 2, 3), (4, 5), (1, 777, 2, 3), (1, 2, 3), (1, 2, 3),
            (1, 1, 2, 3),
        )
    ]
    accepted, _ = oracle(records)
    store = sanitize_windows(record_windows(records, size), **FILTERS).store()
    same_store(store, PathStore(accepted))
    assert store.paths == (ASPath.of(1, 2, 3), ASPath.of(4, 5))


@settings(max_examples=150, deadline=None)
@given(twin_streams(twin=st.just("after")))
def test_a_cleaned_path_windows_before_its_twin(case):
    records, size = case
    accepted, _ = oracle(records)
    same_store(
        sanitize_windows(record_windows(records, size), **FILTERS).store(),
        PathStore(accepted),
    )
