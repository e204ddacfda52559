"""SuffixCache / ViewComputation equivalence with the naive metric path.

A cache may change how often something is computed, never what: every
product must equal the object the plain :mod:`repro.core` functions
build from the same view. Exercised on a full small-world pipeline and
on synthetic corner cases (MOAS fallback, trim edges).
"""

import pytest

from repro import GeneratorConfig, Tracer, generate_world, run_pipeline, small_profiles
from repro.bgp.collectors import VantagePoint
from repro.core.ahc import ahc_ranking, ahc_scores, ahc_scores_cached
from repro.core.cone import (
    cone_addresses,
    cones_from_suffixes,
    customer_cones,
    transit_suffix,
)
from repro.core.cti import cti_scores, per_vp_transit
from repro.core.hegemony import (
    hegemony_scores,
    per_vp_scores,
    trimmed_scores,
    trimmed_scores_sparse,
)
from repro.core.sanitize import FilterReport, PathRecord, PathSet
from repro.core.views import View, international_view
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.perf import SuffixCache, ViewComputation
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


class TestSuffixCache:
    def test_matches_transit_suffix(self, result):
        cache = SuffixCache(result.oracle)
        for rec in result.paths.records:
            assert cache(rec.path) == transit_suffix(rec.path, result.oracle)

    def test_resolve_many_aligned(self, result, view):
        cache = SuffixCache(result.oracle)
        suffixes = cache.resolve_many(view.records)
        assert len(suffixes) == len(view.records)
        for rec, suffix in zip(view.records, suffixes):
            assert suffix == transit_suffix(rec.path, result.oracle)

    def test_unique_suffixes(self, result, view):
        cache = SuffixCache(result.oracle)
        expected = {transit_suffix(r.path, result.oracle) for r in view.records}
        assert cache.unique_suffixes(view.records) == expected

    def test_hit_miss_counters(self, result):
        tracer = Tracer()
        cache = SuffixCache(result.oracle, tracer)
        path = result.paths.records[0].path
        cache(path)
        cache(path)
        counters = tracer.metrics.counters()
        assert counters["perf.suffix.miss"] == 1
        assert counters["perf.suffix.hit"] == 1

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
        compute = ViewComputation(view, result.oracle)
        assert compute.total_addresses() == view.total_addresses()

    def test_cones_match_customer_cones(self, result, view):
        compute = ViewComputation(view, result.oracle)
        assert compute.cones() == customer_cones(view.records, result.oracle)

    def test_cones_from_unique_suffixes_identical(self, result, view):
        suffixes = [transit_suffix(r.path, result.oracle) for r in view.records]
        assert cones_from_suffixes(suffixes) == cones_from_suffixes(set(suffixes))

    def test_cone_addresses_match_naive(self, result, view):
        compute = ViewComputation(view, result.oracle)
        assert compute.cone_addresses() == cone_addresses(
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
        view = View(name="international:AU", country="AU", records=records)
        compute = ViewComputation(view, result.oracle)
        assert compute.cone_addresses() == cone_addresses(records, result.oracle)
        assert compute.total_addresses() == view.total_addresses()

    def test_hegemony_matches_naive(self, result, view):
        compute = ViewComputation(view, result.oracle)
        for trim in (0.0, 0.1, 0.25):
            for weighting in ("addresses", "prefixes"):
                assert compute.hegemony(trim, weighting) == hegemony_scores(
                    view.records, trim, weighting
                )

    def test_hegemony_through_shared_store(self, result, view):
        """The pipeline's computations read the shared store at the
        view's positions; the tables equal a private store's."""
        code = view.country
        shared = result.computation("international", code)
        assert shared.store() is result.paths.store()
        private = ViewComputation(view, result.oracle)
        assert shared.hegemony(0.1) == private.hegemony(0.1)

    def test_cti_matches_naive(self, result, view):
        compute = ViewComputation(view, result.oracle)
        total = view.total_addresses()
        for trim in (0.0, 0.1):
            assert compute.cti(trim) == cti_scores(
                view.records, result.oracle, total, trim
            )

    def test_view_cache_counters(self, result, view):
        tracer = Tracer()
        compute = ViewComputation(view, result.oracle, tracer=tracer)
        compute.cones()
        compute.cones()
        counters = tracer.metrics.counters()
        assert counters["perf.view.miss"] >= 1
        assert counters["perf.view.hit"] >= 1


class TestTrimmedScoresSparse:
    def test_matches_dense_on_pipeline_data(self, result, view):
        per_vp, universe = per_vp_scores(view.records)
        for trim in (0.0, 0.1, 0.3, 0.49):
            assert trimmed_scores_sparse(per_vp, universe, trim) == trimmed_scores(
                per_vp, universe, trim
            )

    def test_single_vp(self):
        per_vp = {"vp": {1: 0.5}}
        assert trimmed_scores_sparse(per_vp, {1, 2}, 0.1) == trimmed_scores(
            per_vp, {1, 2}, 0.1
        )

    def test_all_zero_as(self):
        per_vp = {"a": {1: 0.5}, "b": {1: 0.25}, "c": {}}
        assert trimmed_scores_sparse(per_vp, {1, 9}, 0.1) == trimmed_scores(
            per_vp, {1, 9}, 0.1
        )

    def test_rejects_bad_trim(self):
        with pytest.raises(ValueError):
            trimmed_scores_sparse({}, set(), 0.5)


class TestPerVpTransit:
    def test_presupplied_suffixes_identical(self, result, view):
        suffixes = [transit_suffix(r.path, result.oracle) for r in view.records]
        direct = per_vp_transit(view.records, result.oracle)
        fed = per_vp_transit(view.records, result.oracle, suffixes=suffixes)
        assert fed == direct


class TestAhcThroughCache:
    """AHC routed through ViewComputation equals the naive path exactly."""

    @pytest.fixture(scope="class")
    def global_view(self, result):
        return result.view("global")

    @pytest.fixture(scope="class")
    def origins(self, result):
        code = result.countries_with_national_view()[0]
        return sorted(result.world.graph.by_registry_country(code))

    def test_local_hegemony_matches_naive(self, result, global_view, origins):
        compute = ViewComputation(global_view, result.oracle)
        buckets = {}
        for rec in global_view.records:
            buckets.setdefault(rec.origin, []).append(rec)
        for origin in origins:
            expected = hegemony_scores(buckets.get(origin, ()), 0.1)
            assert compute.local_hegemony(origin, 0.1) == expected

    def test_origin_positions_match_records(self, result, global_view, origins):
        compute = result.computation("global")
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
        compute = ViewComputation(global_view, result.oracle)
        for weighting in ("as_count", "addresses"):
            naive = ahc_scores(
                global_view.records, origins, 0.1, weighting=weighting
            )
            cached = ahc_scores_cached(compute, origins, 0.1, weighting=weighting)
            assert cached == naive  # bit-identical, not approx

    def test_ranking_with_compute_equals_without(self, result, global_view, origins):
        code = result.countries_with_national_view()[0]
        compute = ViewComputation(global_view, result.oracle)
        plain = ahc_ranking(result.paths, code, origins, 0.1)
        routed = ahc_ranking(
            global_view, code, origins, 0.1, compute=compute
        )
        assert routed.entries == plain.entries
        assert routed.metric == plain.metric

    def test_pipeline_ahc_memoised_and_cached(self, result):
        code = result.countries_with_national_view()[0]
        assert result.ranking("AHC", code) is result.ranking("AHC", code)

    def test_perf_counters_count_ahc_hits(self, result, global_view, origins):
        tracer = Tracer()
        compute = ViewComputation(global_view, result.oracle, tracer=tracer)
        ahc_scores_cached(compute, origins, 0.1)
        before = tracer.metrics.counters()["perf.view.hit"]
        ahc_scores_cached(compute, origins, 0.1)  # every lookup now hits
        after = tracer.metrics.counters()["perf.view.hit"]
        assert after > before

    def test_local_hegemony_rejects_bad_trim(self, result, global_view):
        compute = ViewComputation(global_view, result.oracle)
        with pytest.raises(ValueError):
            compute.local_hegemony(1, 0.5)

    def test_unknown_weighting_rejected(self, result, global_view, origins):
        compute = ViewComputation(global_view, result.oracle)
        with pytest.raises(ValueError, match="weighting"):
            ahc_scores_cached(compute, origins, 0.1, weighting="magic")
