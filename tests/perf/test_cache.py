"""ViewComputation equivalence with the reference scorers.

A cache may change how often something is computed, never what: every
product must equal the object the plain :mod:`repro.core` reference
functions build from the same view's records. Exercised on a full
small-world pipeline and on synthetic corner cases (MOAS union, trim
edges).
"""

import pytest

from repro import GeneratorConfig, Tracer, generate_world, run_pipeline, small_profiles
from repro.bgp.collectors import VantagePoint
from repro.core.ahc import ahc_ranking, ahc_scores
from repro.core.cone import (
    cone_addresses,
    cones_from_suffixes,
    customer_cones,
    transit_suffix,
)
from repro.core.cti import cti_scores
from repro.core.hegemony import hegemony_scores
from repro.core.sanitize import PathRecord
from repro.core.views import View, international_view
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.perf import ViewComputation
from repro.perf.cone import view_suffixes
from repro.relationships.inference import infer_relationships

SMALL = GeneratorConfig(profiles=small_profiles(), clique_homes=("US", "US", "SE", "JP"))


@pytest.fixture(scope="module")
def result():
    return run_pipeline(generate_world(SMALL, seed=1, name="small"))


@pytest.fixture(scope="module")
def view(result):
    country = result.countries_with_national_view()[0]
    return international_view(result.paths, country)


def record(vp_ip, prefix, path, prefix_country="AU", vp_country="US"):
    return PathRecord(
        vp=VantagePoint(vp_ip, int(path.split()[0]), "c"),
        vp_country=vp_country,
        prefix=Prefix.parse(prefix),
        prefix_country=prefix_country,
        path=ASPath.parse(path),
        addresses=Prefix.parse(prefix).num_addresses(),
    )


class TestSuffixTable:
    def test_matches_transit_suffix(self, result):
        table = result.view("global").computation().suffixes(result.oracle)
        store = result.paths.store()
        for position, rec in enumerate(result.paths.records):
            sid = table.path_suffix[store.record_path[position]]
            assert table.suffixes[sid] == transit_suffix(rec.path, result.oracle)

    def test_view_suffixes_are_the_distinct_record_suffixes(self, result, view):
        compute = view.computation()
        suffixes = view_suffixes(
            view.store, view.positions, compute.suffixes(result.oracle)
        )
        expected = {transit_suffix(r.path, result.oracle) for r in view.records}
        assert len(suffixes) == len(expected)
        assert set(suffixes) == expected
        assert all(type(asn) is int for suffix in suffixes for asn in suffix)

    def test_p2c_edges_match_oracle(self, result):
        graph = result.world.graph
        edges = graph.p2c_edges()
        for rec in result.paths.records[:200]:
            asns = rec.path.asns
            for left, right in zip(asns, asns[1:]):
                assert ((left, right) in edges) == (
                    graph.relationship(left, right) == "p2c"
                )

    def test_inferred_p2c_edges_match_oracle(self, result):
        inferred = infer_relationships(r.path for r in result.paths.records)
        edges = inferred.p2c_edges()
        for (low, high) in list(inferred.labels)[:200]:
            assert ((low, high) in edges) == (
                inferred.relationship(low, high) == "p2c"
            )
            assert ((high, low) in edges) == (
                inferred.relationship(high, low) == "p2c"
            )


class TestViewComputation:
    def test_total_addresses(self, result, view):
        compute = ViewComputation(view)
        assert compute.total_addresses() == sum(
            {r.prefix: r.addresses for r in view.records}.values()
        )

    def test_cones_match_customer_cones(self, result, view):
        compute = ViewComputation(view)
        assert compute.cones(result.oracle) == customer_cones(
            view.records, result.oracle
        )

    def test_cones_from_unique_suffixes_identical(self, result, view):
        suffixes = [transit_suffix(r.path, result.oracle) for r in view.records]
        assert cones_from_suffixes(suffixes) == cones_from_suffixes(set(suffixes))

    def test_cone_addresses_match_naive(self, result, view):
        compute = ViewComputation(view)
        assert compute.cone_addresses(result.oracle) == cone_addresses(
            view.records, result.oracle
        )

    def test_moas_view_falls_back_exactly(self, result):
        # same prefix announced by two different origins: member prefix
        # sets overlap, so the closure must not double count
        records = (
            record("9.0.0.1", "1.0.0.0/16", "10 20 30"),
            record("9.0.0.2", "1.0.0.0/16", "10 20 31"),
            record("9.0.0.2", "1.1.0.0/16", "10 31"),
        )
        view = View.of("international:AU", "AU", records)
        compute = ViewComputation(view)
        assert compute.cone_addresses(result.oracle) == cone_addresses(
            records, result.oracle
        )
        assert compute.total_addresses() == 2 * 65536

    def test_hegemony_matches_naive(self, result, view):
        compute = ViewComputation(view)
        for trim in (0.0, 0.1, 0.25):
            for weighting in ("addresses", "prefixes"):
                assert compute.hegemony(trim, weighting) == hegemony_scores(
                    view.records, trim, weighting
                )

    def test_hegemony_through_shared_store(self, result, view):
        """The pipeline's views read the shared store at their
        positions; the tables equal a private store's over the same
        records."""
        code = view.country
        shared = result.view("international", code)
        assert shared.store is result.paths.store()
        private = View.of(view.name, code, view.records)
        assert shared.computation().hegemony(0.1) == (
            private.computation().hegemony(0.1)
        )

    def test_cti_matches_naive(self, result, view):
        compute = ViewComputation(view)
        total = view.total_addresses()
        for trim in (0.0, 0.1):
            assert compute.cti(result.oracle, trim) == cti_scores(
                view.records, result.oracle, total, trim
            )

    def test_view_cache_counters(self, result, view):
        tracer = Tracer()
        compute = ViewComputation(view, tracer=tracer)
        compute.cones(result.oracle)
        compute.cones(result.oracle)
        counters = tracer.metrics.counters()
        assert counters["perf.view.miss"] >= 1
        assert counters["perf.view.hit"] >= 1


class TestAhcThroughCache:
    """AHC ranked through the view's computation equals the reference
    exactly."""

    @pytest.fixture(scope="class")
    def global_view(self, result):
        return result.view("global")

    @pytest.fixture(scope="class")
    def origins(self, result):
        code = result.countries_with_national_view()[0]
        return sorted(result.world.graph.by_registry_country(code))

    def test_local_hegemony_matches_naive(self, result, global_view, origins):
        compute = ViewComputation(global_view)
        buckets = {}
        for rec in global_view.records:
            buckets.setdefault(rec.origin, []).append(rec)
        tables = compute.local_hegemonies(origins, 0.1)
        for origin in origins:
            expected = hegemony_scores(buckets.get(origin, ()), 0.1)
            assert tables.get(origin, {}) == expected

    def test_origin_positions_match_records(self, result, global_view, origins):
        compute = global_view.computation()
        records = global_view.records
        groups = compute.origin_positions(origins)
        for origin in origins:
            expected = [
                p for p, rec in enumerate(records) if rec.origin == origin
            ]
            if expected:
                assert groups[origin].tolist() == expected
            else:
                assert origin not in groups

    def test_scores_cached_equals_naive(self, result, global_view, origins):
        code = result.countries_with_national_view()[0]
        for weighting in ("as_count", "addresses"):
            naive = ahc_scores(
                global_view.records, origins, 0.1, weighting=weighting
            )
            ranking = ahc_ranking(
                global_view, code, origins, 0.1, weighting=weighting
            )
            cached = {entry.asn: entry.value for entry in ranking.entries}
            assert cached == naive  # bit-identical, not approx

    def test_ranking_with_compute_equals_without(self, result, global_view, origins):
        """A fresh view over the same positions ranks like the
        pipeline's memoised one."""
        code = result.countries_with_national_view()[0]
        fresh = View("global", None, global_view.store, global_view.positions)
        plain = ahc_ranking(fresh, code, origins, 0.1)
        routed = ahc_ranking(global_view, code, origins, 0.1)
        assert routed.entries == plain.entries
        assert routed.metric == plain.metric

    def test_pipeline_ahc_memoised_and_cached(self, result):
        code = result.countries_with_national_view()[0]
        assert result.ranking("AHC", code) is result.ranking("AHC", code)

    def test_perf_counters_count_ahc_hits(self, result, global_view, origins):
        tracer = Tracer()
        view = View("global", None, global_view.store, global_view.positions)
        ahc_ranking(view, "XX", origins, 0.1, tracer=tracer)
        before = tracer.metrics.counters()["perf.view.hit"]
        ahc_ranking(view, "XX", origins, 0.1)  # every lookup now hits
        after = tracer.metrics.counters()["perf.view.hit"]
        assert after > before

    def test_local_hegemony_rejects_bad_trim(self, result, global_view):
        compute = ViewComputation(global_view)
        with pytest.raises(ValueError):
            compute.local_hegemonies([1], 0.5)

    def test_unknown_weighting_rejected(self, result, global_view, origins):
        with pytest.raises(ValueError, match="weighting"):
            ahc_ranking(global_view, "XX", origins, 0.1, weighting="magic")
