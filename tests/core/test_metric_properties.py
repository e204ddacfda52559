"""Property-based invariants of the ranking metrics over a real
pipeline run (cheap to check, strong to hold), and the cone's
monotonicity in its relationship labels over generated worlds."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import GeneratorConfig, generate_world, run_pipeline, small_profiles
from repro.bgp.propagation import propagate_all
from repro.core.views import View

from tests.bgp.test_propagation_properties import economies
from tests.oracles.inputs import EdgeOracle, as_cones, record
from tests.oracles.cone import cone_addresses, customer_cones, prefix_cones, transit_suffix
from tests.oracles.hegemony import hegemony_scores, local_hegemony


@pytest.fixture(scope="module")
def result():
    world = generate_world(
        GeneratorConfig(profiles=small_profiles(), clique_homes=("US", "US", "SE", "JP")),
        seed=12,
    )
    return run_pipeline(world)


class TestConeInvariants:
    def test_every_as_in_own_cone(self, result):
        cones = customer_cones(result.paths.records, result.oracle)
        for asn, members in cones.items():
            assert asn in members

    def test_suffix_always_ends_at_origin(self, result):
        for record in result.paths.records[:2000]:
            suffix = transit_suffix(record.path, result.oracle)
            assert suffix[-1] == record.origin
            assert len(suffix) >= 1

    def test_suffix_is_contiguous_tail(self, result):
        for record in result.paths.records[:2000]:
            suffix = transit_suffix(record.path, result.oracle)
            assert record.path.asns[-len(suffix):] == suffix

    def test_origin_prefixes_in_own_prefix_cone(self, result):
        cones = prefix_cones(result.paths.records, result.oracle)
        observed: dict[int, set] = {}
        for record in result.paths.records:
            observed.setdefault(record.origin, set()).add(record.prefix)
        for origin, prefixes in observed.items():
            assert prefixes <= cones.get(origin, set())

    def test_cone_addresses_bounded_by_view_total(self, result):
        view = result.view("global")
        total = view.total_addresses()
        for asn, addresses in cone_addresses(view.records, result.oracle).items():
            assert 0 < addresses <= total

    def test_provider_cone_superset_on_p2c_chains(self, result):
        """If every observed path into B's cone passes A→B (sole
        provider), then cone(A) ⊇ cone(B). Check the weaker, always-true
        variant: any AS observed downstream of A on a suffix has its
        own suffix-tail inside A's cone for that same path."""
        cones = customer_cones(result.paths.records, result.oracle)
        for record in result.paths.records[:500]:
            suffix = transit_suffix(record.path, result.oracle)
            for index, asn in enumerate(suffix):
                assert set(suffix[index:]) <= cones[asn]


class TestHegemonyInvariants:
    def test_scores_within_unit_interval(self, result):
        scores = hegemony_scores(result.paths.records)
        for asn, value in scores.items():
            assert 0.0 <= value <= 1.0 + 1e-9

    def test_local_hegemony_of_origin_is_high(self, result):
        """Every path toward an origin contains the origin, so its own
        local hegemony is 1 (modulo trimming of empty VPs)."""
        origins = {record.origin for record in result.paths.records}
        for origin in sorted(origins)[:10]:
            scores = local_hegemony(result.paths.records, origin)
            if scores:
                assert scores[origin] == pytest.approx(1.0)

    def test_restricting_views_never_invents_ases(self, result):
        for country in ("AU", "US"):
            view_ases = {
                asn
                for record in result.view("international", country).records
                for asn in record.path.asns
            }
            ranking = result.ranking("AHI", country)
            assert {entry.asn for entry in ranking.entries} <= view_ases

    def test_ndcg_of_full_ranking_is_exactly_one(self, result):
        from repro.core.ndcg import ndcg

        ranking = result.ranking("AHI", "AU")
        assert ndcg(ranking, ranking) == pytest.approx(1.0)

    def test_share_sums_exceed_one_are_fine_but_finite(self, result):
        """Hegemony shares overlap (many ASes on one path); the sum is
        bounded by the mean path length, not by 1."""
        scores = hegemony_scores(result.paths.records)
        total = sum(scores.values())
        mean_path_len = sum(
            len(record.path) for record in result.paths.records
        ) / len(result.paths.records)
        assert total <= mean_path_len + 1.0
        assert math.isfinite(total)


@st.composite
def labelled_worlds(draw):
    """Every AS's route to every origin over a random valley-free
    economy, as records (one /24 per origin, a VP at every AS); a
    random subset of the economy's provider→customer pairs labelled;
    and one adjacent pair of an observed path that no label covers."""
    graph, _, tiebreak = draw(economies())
    routes = propagate_all(graph, origins=graph.asns(), tiebreak=tiebreak).routes
    records = [
        record(f"10.0.{holder}.1", route.path, f"10.{origin}.0.0/24")
        for origin in sorted(routes)
        for holder, route in sorted(routes[origin].items())
    ]
    edges = sorted(graph.p2c_edges())
    labelled = draw(st.sets(st.sampled_from(edges))) if edges else set()
    unlabelled = sorted({
        (left, right)
        for rec in records
        for left, right in zip(rec.path.asns, rec.path.asns[1:])
        if (left, right) not in labelled and (right, left) not in labelled
    })
    assume(unlabelled)
    return records, labelled, draw(st.sampled_from(unlabelled))


def grows(before, after):
    """Every cone of ``before`` is inside its holder's cone in ``after``."""
    return all(members <= after.get(holder, set())
               for holder, members in before.items())


class TestConeMonotonicity:
    """Labelling a previously unlabelled pair p2c never shrinks any
    customer cone: a transit suffix is the longest p2c tail of its
    path, and a new p2c label can only let a tail grow."""

    @settings(max_examples=100, deadline=None)
    @given(labelled_worlds())
    def test_production_cones_grow(self, world):
        records, labelled, pair = world

        def cones(edges):
            view = View.of("global", None, records)
            return as_cones(view.computation().cone_pairs(EdgeOracle(edges)))

        assert grows(cones(labelled), cones(labelled | {pair}))

    @settings(max_examples=100, deadline=None)
    @given(labelled_worlds())
    def test_oracle_cones_grow(self, world):
        records, labelled, pair = world
        assert grows(
            customer_cones(records, EdgeOracle(labelled)),
            customer_cones(records, EdgeOracle(labelled | {pair})),
        )
