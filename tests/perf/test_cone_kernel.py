"""The columnar cone and CTI kernel must equal the reference bit for
bit: the cone addresses, address totals and CTI tables
:class:`repro.perf.cache.ViewComputation` computes through
:mod:`repro.perf.cone` are compared by ``repr`` against
:func:`repro.core.cone.cone_addresses`, the records' distinct prefix
addresses and :func:`repro.core.cti.cti_scores` over the same records,
on an in-memory and an mmap-backed store."""

import tempfile
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.collectors import VantagePoint
from repro.core.cone import cone_addresses, customer_cones
from repro.core.cti import cti_scores
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.core.sanitize import FilterReport, PathRecord
from repro.core.views import View
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.perf.cache import ViewComputation
from repro.perf.cone import p2c_edges
from repro.perf.pathstore import PathStore, _LazyRecords
from repro.perf.spill import MmapPathStore, SpillWriter
from repro.topology.catalog import build_world

from tests.perf.test_hegemony_kernel import relabelled, wide_labels

TRIMS = (0.0, 0.1, 0.25, 0.49)
BACKENDS = ("memory", "mmap")
#: per-prefix address counts: zero, small, and IPv6 counts past 2^64
ADDRESSES = (0, 1, 256, 768, 2 ** 64 + 3, 2 ** 96, 2 ** 100 + 1)


class EdgeOracle:
    """A relationship oracle over an explicit provider→customer set."""

    def __init__(self, edges):
        self.edges = frozenset(edges)

    def relationship(self, left, right):
        if (left, right) in self.edges:
            return "p2c"
        if (right, left) in self.edges:
            return "c2p"
        return None

    def p2c_edges(self):
        return self.edges


class RelationshipOnly:
    """The same oracle without the bulk ``p2c_edges()`` form."""

    def __init__(self, edges):
        self._oracle = EdgeOracle(edges)

    def relationship(self, left, right):
        return self._oracle.relationship(left, right)


def record(vp_ip, path, prefix, addresses=256):
    return PathRecord(
        vp=VantagePoint(vp_ip, path[0], "c"),
        vp_country="US",
        prefix=Prefix.parse(prefix),
        prefix_country="NL",
        path=ASPath(tuple(path)),
        addresses=addresses,
    )


def build_store(records, backend, directory):
    if backend == "memory":
        return PathStore(records)
    writer = SpillWriter(directory)
    report = FilterReport()
    writer.prepare(report)
    for rec in records:
        writer.add(rec)
    writer.seal(len(records), report)
    return MmapPathStore(directory)


def reprs(table):
    return {asn: repr(value) for asn, value in table.items()}


def assert_kernel_matches(records, oracle, backend, positions=None):
    """Every kernel product over the store's records at ``positions``
    (all by default) equals the reference over those same records."""
    with tempfile.TemporaryDirectory() as directory:
        store = build_store(records, backend, directory)
        view = View("international:NL", "NL", store, positions)
        # a store holds each prefix with its first count; the reference
        # reads the records the store actually holds
        subset = tuple(view.records)
        compute = ViewComputation(view)
        total = sum({r.prefix: r.addresses for r in subset}.values())
        assert compute.total_addresses() == total
        assert compute.cones(oracle) == customer_cones(subset, oracle)
        assert compute.cone_addresses(oracle) == cone_addresses(subset, oracle)
        for trim in TRIMS:
            assert reprs(compute.cti(oracle, trim)) == reprs(
                cti_scores(subset, oracle, total, trim)
            )


@st.composite
def record_sets(draw):
    """Small random record sets over ASNs 1-8: up to twelve VPs, up to
    six prefixes each with a home origin and an address count, and a
    random provider→customer edge set. Some draws give a prefix
    several origins (MOAS) or its records different counts."""
    prefixes = draw(st.integers(min_value=1, max_value=6))
    counts = draw(st.lists(
        st.sampled_from(ADDRESSES), min_size=prefixes, max_size=prefixes,
    ))
    homes = draw(st.lists(
        st.integers(min_value=1, max_value=8),
        min_size=prefixes, max_size=prefixes,
    ))
    moas = draw(st.booleans())
    conflicting = draw(st.booleans())
    vps = draw(st.integers(min_value=1, max_value=12))
    rows = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=vps - 1),
            st.lists(st.integers(min_value=1, max_value=8),
                     min_size=1, max_size=5),
            st.integers(min_value=0, max_value=prefixes - 1),
            st.sampled_from(ADDRESSES),
        ),
        max_size=60,
    ))
    edges = draw(st.sets(
        st.tuples(st.integers(min_value=1, max_value=8),
                  st.integers(min_value=1, max_value=8)),
        max_size=24,
    ))
    records = [
        record(
            f"10.0.0.{vp + 1}",
            path if moas else path[:-1] + [homes[prefix]],
            f"10.{prefix}.0.0/16",
            own if conflicting else counts[prefix],
        )
        for vp, path, prefix, own in rows
    ]
    return records, edges


class TestParity:
    @settings(max_examples=150, deadline=None)
    @given(
        drawn=record_sets(),
        backend=st.sampled_from(BACKENDS),
        bulk=st.booleans(),
    )
    def test_random_record_sets(self, drawn, backend, bulk):
        records, edges = drawn
        oracle = EdgeOracle(edges) if bulk else RelationshipOnly(edges)
        assert_kernel_matches(records, oracle, backend)

    @settings(max_examples=80, deadline=None)
    @given(
        drawn=record_sets(),
        labels=wide_labels,
        backend=st.sampled_from(BACKENDS),
        bulk=st.booleans(),
    )
    def test_wide_asns(self, drawn, labels, backend, bulk):
        """The drawn pool and edges relabelled into random public
        32-bit ASNs."""
        records, edges = drawn
        edges = {(labels[left - 1], labels[right - 1]) for left, right in edges}
        oracle = EdgeOracle(edges) if bulk else RelationshipOnly(edges)
        assert_kernel_matches(relabelled(records, labels), oracle, backend)

    @settings(max_examples=60, deadline=None)
    @given(drawn=record_sets(), backend=st.sampled_from(BACKENDS),
           data=st.data())
    def test_position_subsets(self, drawn, backend, data):
        """A view is any ascending subset of the store's positions."""
        records, edges = drawn
        keep = data.draw(st.lists(
            st.booleans(), min_size=len(records), max_size=len(records),
        ))
        assert_kernel_matches(
            records, EdgeOracle(edges), backend, np.flatnonzero(keep),
        )


#: 1 provides transit to 2 and 3, 2 to 4 and 5, 3 to 6
EDGES = {(1, 2), (1, 3), (2, 4), (2, 5), (3, 6)}


@pytest.mark.parametrize("backend", BACKENDS)
class TestCorners:
    def test_moas_prefix(self, backend):
        # 10.1/16 is originated by 4 and by 5: cone members' prefix sets
        # overlap, so the closure falls back to the union
        records = [
            record("10.0.0.1", [1, 2, 4], "10.1.0.0/16"),
            record("10.0.0.2", [1, 2, 5], "10.1.0.0/16"),
            record("10.0.0.2", [1, 2, 5], "10.2.0.0/16", 768),
        ]
        assert_kernel_matches(records, EdgeOracle(EDGES), backend)
        compute = ViewComputation(View.of("v", None, records))
        # not 256 * 2 + 768
        assert compute.cone_addresses(EdgeOracle(EDGES))[2] == 256 + 768

    def test_conflicting_address_counts(self, backend):
        # one prefix, two counts: the store keeps the first, and the
        # reference reads the records the store holds
        records = [
            record("10.0.0.1", [1, 2, 4], "10.1.0.0/16", 256),
            record("10.0.0.2", [3, 6], "10.6.0.0/16", 768),
            record("10.0.0.2", [1, 2, 4], "10.1.0.0/16", 1024),
        ]
        assert_kernel_matches(records, EdgeOracle(EDGES), backend)

    def test_zero_address_records(self, backend):
        # AS 3 transits only toward an empty prefix: its CTI cells are
        # 0.0, and it keeps its row
        records = [
            record("10.0.0.1", [1, 3, 6], "10.6.0.0/16", 0),
            record("10.0.0.1", [1, 2, 4], "10.4.0.0/16", 256),
            record("10.0.0.2", [2, 5], "10.5.0.0/16", 0),
        ]
        assert_kernel_matches(records, EdgeOracle(EDGES), backend)
        compute = ViewComputation(View.of("v", None, records))
        assert compute.cti(EdgeOracle(EDGES), 0.1)[3] == 0.0

    def test_vp_with_only_origin_only_suffixes(self, backend):
        # VP .3 reaches everything over peer links: all its suffixes are
        # the bare origin, yet it is one of the n = 3 VPs
        records = [
            record("10.0.0.1", [1, 2, 4], "10.4.0.0/16"),
            record("10.0.0.2", [2, 4], "10.4.0.0/16"),
            record("10.0.0.3", [6, 4], "10.4.0.0/16"),
        ]
        assert_kernel_matches(records, EdgeOracle(EDGES), backend)
        compute = ViewComputation(View.of("v", None, records))
        # AS 2's per-VP values are 1, 1 and 0 (addresses over the total)
        assert compute.cti(EdgeOracle(EDGES), 0.0)[2] == 2 / 3

    def test_ipv6_counts_beyond_two_to_the_64(self, backend):
        records = [
            record("10.0.0.1", [1, 2, 4], "10.4.0.0/16", 2 ** 100 + 1),
            record("10.0.0.1", [1, 2, 5], "10.5.0.0/16", 2 ** 64 + 3),
            record("10.0.0.2", [1, 3, 6], "10.6.0.0/16", 2 ** 96),
        ]
        assert_kernel_matches(records, EdgeOracle(EDGES), backend)
        closure = ViewComputation(View.of("v", None, records)).cone_addresses(
            EdgeOracle(EDGES)
        )
        # exact integer closure: float64 would drop the +1 and +3
        assert closure[1] == 2 ** 100 + 2 ** 96 + 2 ** 64 + 4
        assert closure[2] == 2 ** 100 + 2 ** 64 + 4

    def test_empty_view(self, backend):
        records = [record("10.0.0.1", [1, 2, 4], "10.4.0.0/16")]
        assert_kernel_matches(
            records, EdgeOracle(EDGES), backend, np.empty(0, dtype=np.int64),
        )

    def test_relationship_only_oracle(self, backend):
        records = [
            record("10.0.0.1", [1, 2, 4], "10.4.0.0/16"),
            record("10.0.0.2", [3, 1, 2, 5], "10.5.0.0/16", 768),
            record("10.0.0.3", [6, 3, 1, 2, 4], "10.4.0.0/16"),
        ]
        assert_kernel_matches(records, RelationshipOnly(EDGES), backend)
        asked = []
        oracle = RelationshipOnly(EDGES)
        ask = oracle.relationship
        oracle.relationship = lambda left, right: (
            asked.append((left, right)) or ask(left, right)
        )
        # only the pairs the store's paths hold, each asked once
        assert p2c_edges(PathStore(records), oracle) == {(1, 2), (2, 4), (2, 5)}
        assert sorted(asked) == [(1, 2), (2, 4), (2, 5), (3, 1), (6, 3)]

    def test_terms_add_one_at_a_time(self, backend):
        # one cell with 2^53 then fifteen 1s: added in order each 1 is
        # lost to rounding, a pairwise sum would keep some of them
        records = [record("10.0.0.1", [1, 2], "10.0.0.0/16", 2 ** 53)] + [
            record("10.0.0.1", [1, 2], f"10.{i}.0.0/16", 1)
            for i in range(1, 16)
        ]
        assert_kernel_matches(records, EdgeOracle(EDGES), backend)


class TestPipelineStores:
    """Through the pipeline, CC* and CTI read store columns only."""

    @pytest.fixture(scope="class")
    def results(self):
        world = build_world("small", 0)
        memory = run_pipeline(world, PipelineConfig(seed=0))
        spilled = run_pipeline(
            world, PipelineConfig(seed=0, store_backend="mmap")
        )
        yield memory, spilled
        spilled.close()

    def test_mmap_kernel_never_materialises_records(self, results,
                                                    monkeypatch):
        memory, spilled = results
        code = memory.countries_with_national_view()[0]
        expected = {}
        for kind in ("international", "national", "outbound"):
            view = memory.view(kind, code)
            expected[kind] = (
                cone_addresses(view.records, memory.oracle),
                cti_scores(
                    view.records, memory.oracle, view.total_addresses(), 0.1
                ),
            )

        def forbidden(self, *args):
            raise AssertionError("the kernel materialised a spilled record")

        monkeypatch.setattr(_LazyRecords, "__getitem__", forbidden)
        monkeypatch.setattr(_LazyRecords, "__iter__", forbidden)
        store = spilled.paths.store()
        for kind, (addresses, cti) in expected.items():
            compute = ViewComputation(spilled.view(kind, code))
            assert compute.cone_addresses(spilled.oracle) == addresses
            assert reprs(compute.cti(spilled.oracle, 0.1)) == reprs(cti)
        with pytest.raises(AttributeError):  # never built by the sweep
            PathStore.path_ids.__get__(store)

    def test_rankings_identical_across_backends(self, results):
        memory, spilled = results
        units = [("CCG", None)] + [
            (metric, code)
            for metric in ("CCI", "CCN", "CCO", "CTI")
            for code in memory.countries_with_national_view()
        ]
        for metric, code in units:
            base = memory.ranking(metric, code)
            assert spilled.ranking(metric, code).entries == base.entries


def test_kernel_skips_asn_hashing_on_warm_store():
    """Once the store's suffixes are interned, a view's cones and CTI
    never hash an ``ASPath``."""
    records = [
        record("10.0.0.1", [1, 2, 4], "10.4.0.0/16"),
        record("10.0.0.2", [1, 3, 6], "10.6.0.0/16"),
    ]
    store = PathStore(records)
    store.transit_suffixes(EdgeOracle(EDGES).edges)

    def forbidden(self):
        raise AssertionError("an ASPath was hashed")

    compute = ViewComputation(View("v", None, store))
    with patch.object(ASPath, "__hash__", forbidden):
        compute.cone_addresses(EdgeOracle(EDGES))
        compute.cti(EdgeOracle(EDGES), 0.1)
