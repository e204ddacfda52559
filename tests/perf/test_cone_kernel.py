"""The columnar cone and CTI kernel against the oracles and on
hand-checked corners.

The kernel's products — cone pairs, cone addresses, address totals and
CTI tables, computed by :class:`repro.perf.cache.ViewComputation`
through :mod:`repro.perf.cone` — are held to the record-by-record
oracles by the test matrix's rows (``tests/oracles/matrix.py``): on
generated record sets here, and on every input of
``tests/oracles/test_matrix.py``, the corners of
``tests/oracles/inputs.py`` among them. Here too each corner's hand-derived values: the count dtypes past 2**53,
the closure over a MOAS prefix, the store's first count for a prefix,
the relationship questions asked, and the kernel reading store columns
only.
"""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.core.views import View
from repro.net.aspath import ASPath
from repro.perf.cache import ViewComputation
from repro.perf.cone import p2c_edges
from repro.perf.pathstore import PathStore, _LazyRecords
from repro.topology.catalog import build_world

from tests.oracles.inputs import (
    BACKENDS,
    CORNERS,
    EDGES,
    EdgeOracle,
    RelationshipOnly,
    as_table,
    build_store,
    record,
    record_sets,
    relabelled,
    wide_labels,
)
from tests.oracles.matrix import check_records


def assert_kernel_matches(records, oracle, backend, positions=None):
    """The matrix's views, cone and CTI rows over the records' index
    views, or over the view at ``positions``: every product by
    ``repr``."""
    check_records(("views", "cone", "cti"), records, oracle, backend, positions)


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
           bulk=st.booleans(), data=st.data())
    def test_position_subsets(self, drawn, backend, bulk, data):
        """A view is any ascending subset of the store's positions."""
        records, edges = drawn
        keep = data.draw(st.lists(
            st.booleans(), min_size=len(records), max_size=len(records),
        ))
        oracle = EdgeOracle(edges) if bulk else RelationshipOnly(edges)
        assert_kernel_matches(records, oracle, backend, np.flatnonzero(keep))


@pytest.fixture
def computed(backend, tmp_path):
    """``ViewComputation`` over ``records`` in a store of ``backend``
    (every record, or those at ``positions``)."""

    def compute(records, positions=None):
        directory = tmp_path / str(len(list(tmp_path.iterdir())))
        directory.mkdir()
        store = build_store(records, backend, directory)
        return ViewComputation(View("international:NL", "NL", store, positions))

    return compute


@pytest.mark.parametrize("backend", BACKENDS)
class TestCorners:
    def test_moas_prefix(self, computed):
        # 10.1/16 is originated by 4 and by 5: cone members' prefix sets
        # overlap, so the closure sums distinct (holder, prefix) pairs
        compute = computed(CORNERS["moas"])
        asns, counts = compute.cone_addresses(EdgeOracle(EDGES))
        assert asns.tolist() == [1, 2, 4, 5]
        assert counts.dtype == np.int64
        # AS 2: not 256 * 2 + 768
        assert counts.tolist() == [256 + 768, 256 + 768, 256, 256 + 768]

    def test_conflicting_address_counts(self, computed):
        # one prefix, two counts: the store keeps the first, so 10.1/16
        # counts 256 in the total and in every closure holding it
        compute = computed(CORNERS["conflicting_counts"])
        assert compute.total_addresses() == 256 + 768
        assert as_table(compute.cone_addresses(EdgeOracle(EDGES))) == {
            1: 256, 2: 256, 3: 768, 4: 256, 6: 768,
        }

    def test_zero_address_records(self, computed):
        # AS 3 transits only toward an empty prefix: its CTI cells are
        # 0.0, and it keeps its row
        compute = computed(CORNERS["zero_addresses"])
        assert as_table(compute.cti(EdgeOracle(EDGES), 0.1))[3] == 0.0

    def test_vp_with_only_origin_only_suffixes(self, computed):
        # VP .3 reaches everything over peer links: all its suffixes are
        # the bare origin, yet it is one of the n = 3 VPs
        compute = computed(CORNERS["origin_only_suffixes"])
        # AS 2's per-VP values are 1, 1 and 0 (addresses over the total)
        assert as_table(compute.cti(EdgeOracle(EDGES), 0.0))[2] == 2 / 3

    def test_ipv6_counts_beyond_two_to_the_64(self, computed):
        compute = computed(CORNERS["ipv6_counts"])
        asns, closure = compute.cone_addresses(EdgeOracle(EDGES))
        # past 2**53 the closure column holds Python ints: float64
        # would drop the +1 and +3, int64 would overflow
        assert asns.tolist() == [1, 2, 3, 4, 5, 6]
        assert closure.dtype == object
        assert all(type(count) is int for count in closure)
        assert closure.tolist() == [
            2 ** 100 + 2 ** 96 + 2 ** 64 + 4, 2 ** 100 + 2 ** 64 + 4,
            2 ** 96, 2 ** 100 + 1, 2 ** 64 + 3, 2 ** 96,
        ]

    def test_counts_just_below_two_to_the_53(self, computed):
        # a total one below 2**53 still sums in int64, exactly
        compute = computed(CORNERS["below_2_53"])
        asns, closure = compute.cone_addresses(EdgeOracle(EDGES))
        assert compute.total_addresses() == 2 ** 53 - 1
        assert closure.dtype == np.int64
        assert as_table((asns, closure))[1] == 2 ** 53 - 1

    def test_empty_view(self, computed):
        oracle = EdgeOracle(EDGES)
        compute = computed(CORNERS["empty_view"], np.empty(0, dtype=np.int64))
        for asns, values in (
            compute.cone_addresses(oracle), compute.cti(oracle, 0.1),
        ):
            assert asns.dtype == np.int64 and len(asns) == len(values) == 0
        holders, members = compute.cone_pairs(oracle)
        assert len(holders) == len(members) == 0

    def test_relationship_only_oracle(self, computed):
        records = CORNERS["relationship_only"]
        # without p2c_edges(), the same cones as with it
        with_edges = computed(records).cone_pairs(EdgeOracle(EDGES))
        without = computed(records).cone_pairs(RelationshipOnly(EDGES))
        assert [column.tolist() for column in without] == [
            column.tolist() for column in with_edges
        ]
        asked = []
        oracle = RelationshipOnly(EDGES)
        ask = oracle.relationship
        oracle.relationship = lambda left, right: (
            asked.append((left, right)) or ask(left, right)
        )
        # only the pairs the store's paths hold, each asked once
        assert p2c_edges(PathStore(records), oracle) == {(1, 2), (2, 4), (2, 5)}
        assert sorted(asked) == [(1, 2), (2, 4), (2, 5), (3, 1), (6, 3)]

    def test_terms_add_one_at_a_time(self, computed):
        # one cell with 2^53 then fifteen 1s: added in order each 1 is
        # lost to rounding (2^53 + 1 rounds to even), a pairwise sum
        # would keep some of them
        compute = computed(CORNERS["terms_in_order"])
        cti = as_table(compute.cti(EdgeOracle(EDGES), 0.0))
        assert cti == {1: float(2 ** 53) / (2 ** 53 + 15)}


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
            compute = ViewComputation(memory.view(kind, code))
            expected[kind] = (
                as_table(compute.cone_addresses(memory.oracle)),
                repr(as_table(compute.cti(memory.oracle, 0.1))),
            )

        def forbidden(self, *args):
            raise AssertionError("the kernel materialised a spilled record")

        monkeypatch.setattr(_LazyRecords, "__getitem__", forbidden)
        monkeypatch.setattr(_LazyRecords, "__iter__", forbidden)
        store = spilled.paths.store()
        for kind, (addresses, cti) in expected.items():
            compute = ViewComputation(spilled.view(kind, code))
            assert as_table(compute.cone_addresses(spilled.oracle)) == addresses
            assert repr(as_table(compute.cti(spilled.oracle, 0.1))) == cti
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
