"""The SoA path store must be invisible: every product it feeds —
interned transit suffixes, record columns — must be value-identical to
what the record-walking code builds."""

import pytest

from repro import (
    GeneratorConfig,
    generate_world,
    run_pipeline,
    small_profiles,
)
from repro.net.aspath import ASPath
from repro.perf.cone import suffix_starts
from repro.perf.pathstore import PathStore

from tests.oracles import inputs
from tests.oracles.cone import transit_suffix

SMALL = GeneratorConfig(
    profiles=small_profiles(), clique_homes=("US", "US", "SE", "JP")
)


@pytest.fixture(scope="module")
def result():
    return run_pipeline(generate_world(SMALL, seed=4, name="small"))


@pytest.fixture(scope="module")
def store(result):
    return result.paths.store()


def record(path, addresses=1):
    return inputs.record(
        "10.0.0.1", path.asns, "10.1.0.0/16", addresses, prefix_country="US",
    )


def starts(store, p2c):
    return suffix_starts(store.tokens, store.offsets, store.lengths, p2c).tolist()


class TestLayout:
    def test_tokens_roundtrip_distinct_paths(self, result, store):
        records = result.paths.records
        assert store.record_count == len(records)
        assert len(store) == len({record.path for record in records})
        for pid, path in enumerate(store.paths):
            offset = int(store.offsets[pid])
            length = int(store.lengths[pid])
            assert tuple(store.tokens[offset:offset + length]) == path.asns

    def test_record_columns_match_records(self, result, store):
        records = result.paths.records
        for position, record in enumerate(records):
            assert store.paths[int(store.record_path[position])] == record.path
            assert int(store.record_origin[position]) == record.path.origin
            assert store.record_addresses[position] == record.addresses
            vp, vp_country = store.vp_table[int(store.record_vp[position])]
            assert (vp, vp_country) == (record.vp, record.vp_country)
            assert store.prefix_table[int(store.record_prefix[position])] == (
                record.prefix, record.prefix_country, record.addresses
            )

    def test_addresses_survive_beyond_int64(self):
        huge = 2 ** 96  # an IPv6 /32's address count
        built = PathStore([record(ASPath.trusted((1, 2)), huge)])
        assert built.record_addresses[0] == huge
        assert built.prefix_table[0][2] == huge

    def test_shared_via_pathset(self, result):
        assert result.paths.store() is result.paths.store()


class TestSuffixStarts:
    def test_matches_transit_suffix(self, result):
        built = PathStore(result.paths.records)
        got = starts(built, result.oracle.p2c_edges())
        for pid, path in enumerate(built.paths):
            expected = transit_suffix(path, result.oracle)
            assert tuple(path.asns[got[pid]:]) == expected

    def test_edge_cases(self):
        paths = [
            ASPath.trusted((5,)),           # single hop: suffix is itself
            ASPath.trusted((1, 2, 3)),      # full p2c chain: start 0
            ASPath.trusted((9, 1, 2)),      # tail-only chain
            ASPath.trusted((2, 1, 9)),      # no p2c tail: origin only
        ]
        built = PathStore([record(p) for p in paths])
        assert starts(built, frozenset({(1, 2), (2, 3)})) == [0, 0, 1, 2]
        assert starts(built, frozenset()) == [0, 2, 2, 2]

    def test_empty_store(self):
        built = PathStore([])
        assert starts(built, frozenset({(1, 2)})) == []


class TestTransitSuffixes:
    def test_memoised_per_edge_set(self, result):
        store = PathStore(result.paths.records)
        edges = result.oracle.p2c_edges()
        table = store.transit_suffixes(edges)
        assert store.transit_suffixes(edges) is table
        assert store.transit_suffixes(frozenset(edges)) is table  # equal set
        other = store.transit_suffixes(frozenset())
        assert other is not table
        assert all(len(suffix) == 1 for suffix in other.suffixes)

    def test_pipeline_views_share_one_table(self, result):
        code = result.countries_with_national_view()[0]
        oracle = result.oracle
        shared = result.view("global").computation().suffixes(oracle)
        for kind in ("national", "international"):
            view = result.view(kind, code)
            assert view.computation().suffixes(oracle) is shared
