"""ViewComputation equivalence with the oracles, its memoisation and
its suffix table.

A cache may change how often something is computed, never what: every
product equals what the record-by-record oracles of ``tests/oracles/``
build from the same view's records (on every input and backend in
``tests/oracles/test_matrix.py``; here on one ``small`` world view).
Also: the interned suffix table against the oracle's transit suffixes,
the bulk ``p2c_edges()`` forms against ``relationship()``, the hit/miss
counters, the shared store behind the pipeline's views, and AHC through
the memoised per-origin tables.
"""

import pytest

from repro import GeneratorConfig, Tracer, generate_world, run_pipeline, small_profiles
from repro.core.ahc import ahc_ranking
from repro.core.views import View
from repro.perf import ViewComputation
from repro.perf.cone import view_suffix_ids
from repro.relationships.inference import infer_relationships

from tests.oracles import cone, cti, hegemony
from tests.oracles.cone import transit_suffix
from tests.oracles.inputs import EdgeOracle, as_cones, as_table, record

SMALL = GeneratorConfig(profiles=small_profiles(), clique_homes=("US", "US", "SE", "JP"))


@pytest.fixture(scope="module")
def result():
    return run_pipeline(generate_world(SMALL, seed=1, name="small"))


@pytest.fixture(scope="module")
def view(result):
    country = result.countries_with_national_view()[0]
    return View(
        f"international:{country}", country, result.paths.store(),
        result.view("international", country).positions,
    )


class TestSuffixTable:
    def test_matches_transit_suffix(self, result):
        table = result.view("global").computation().suffixes(result.oracle)
        store = result.paths.store()
        for position, rec in enumerate(result.paths.records):
            sid = table.path_suffix[store.record_path[position]]
            assert table.suffixes[sid] == transit_suffix(rec.path, result.oracle)

    def test_view_suffixes_are_the_distinct_record_suffixes(self, result, view):
        table = view.computation().suffixes(result.oracle)
        ids = view_suffix_ids(view.store, view.positions, table)
        assert ids.tolist() == sorted(set(ids.tolist()))
        suffixes = [table.suffixes[sid] for sid in ids.tolist()]
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
    def test_total_addresses(self, view):
        compute = ViewComputation(view)
        assert compute.total_addresses() == cone.total_addresses(view.records)

    def test_cones_match_customer_cones(self, result, view):
        compute = ViewComputation(view)
        assert as_cones(compute.cone_pairs(result.oracle)) == (
            cone.customer_cones(view.records, result.oracle)
        )

    def test_cones_from_unique_suffixes_identical(self, result, view):
        """The kernel closes cones over the view's distinct suffixes:
        one record per distinct transit suffix gives every record's
        cones."""
        distinct = {
            transit_suffix(r.path, result.oracle): r for r in view.records
        }
        assert cone.customer_cones(distinct.values(), result.oracle) == (
            cone.customer_cones(view.records, result.oracle)
        )

    def test_cone_addresses_match_naive(self, result, view):
        compute = ViewComputation(view)
        assert as_table(compute.cone_addresses(result.oracle)) == (
            cone.cone_addresses(view.records, result.oracle)
        )

    def test_moas_view_falls_back_exactly(self):
        # same prefix announced by two different origins: member prefix
        # sets overlap, so the closure must not double count
        records = (
            record("9.0.0.1", "10 20 30", "1.0.0.0/16", 65536),
            record("9.0.0.2", "10 20 31", "1.0.0.0/16", 65536),
            record("9.0.0.2", "10 31", "1.1.0.0/16", 65536),
        )
        oracle = EdgeOracle({(10, 20), (20, 30), (20, 31)})
        compute = ViewComputation(View.of("international:NL", "NL", records))
        assert compute.total_addresses() == 2 * 65536
        # AS 20's members 30 and 31 both originate 1.0/16: it counts once
        assert as_table(compute.cone_addresses(oracle)) == {
            10: 2 * 65536, 20: 2 * 65536, 30: 65536, 31: 2 * 65536,
        }

    def test_hegemony_matches_naive(self, view):
        compute = ViewComputation(view)
        for trim in (0.0, 0.1, 0.25):
            for weighting in ("addresses", "prefixes"):
                assert as_table(compute.hegemony(trim, weighting)) == (
                    hegemony.hegemony_scores(view.records, trim, weighting)
                )

    def test_hegemony_through_shared_store(self, result, view):
        """The pipeline's views read the shared store at their
        positions; the tables equal a private store's over the same
        records."""
        code = view.country
        shared = result.view("international", code)
        assert shared.store is result.paths.store()
        private = View.of(view.name, code, view.records)
        assert as_table(shared.computation().hegemony(0.1)) == as_table(
            private.computation().hegemony(0.1)
        )

    def test_cti_matches_naive(self, result, view):
        compute = ViewComputation(view)
        total = view.total_addresses()
        for trim in (0.0, 0.1):
            assert as_table(compute.cti(result.oracle, trim)) == cti.cti_scores(
                view.records, result.oracle, total, trim
            )

    def test_view_cache_counters(self, result, view):
        tracer = Tracer()
        compute = ViewComputation(view, tracer=tracer)
        compute.cone_pairs(result.oracle)
        compute.cone_pairs(result.oracle)
        counters = tracer.metrics.counters()
        assert counters["perf.view.miss"] >= 1
        assert counters["perf.view.hit"] >= 1


class TestAhcThroughCache:
    """AHC ranked through the view's memoised per-origin tables equals
    the oracle exactly."""

    @pytest.fixture(scope="class")
    def global_view(self, result):
        return result.view("global")

    @pytest.fixture(scope="class")
    def origins(self, result):
        code = result.countries_with_national_view()[0]
        return sorted(result.world.graph.by_registry_country(code))

    def test_local_hegemony_matches_naive(self, global_view, origins):
        tables = ViewComputation(global_view).local_hegemonies(origins, 0.1)
        for origin in origins:
            table = tables.get(origin)
            assert (as_table(table) if table is not None else {}) == (
                hegemony.local_hegemony(global_view.records, origin, 0.1)
            )

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
            naive = hegemony.ahc_scores(
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
