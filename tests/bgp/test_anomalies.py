"""Anomaly injection: the per-path reference, the token-space planter
held to it, and the planted series checked against Table 1."""

import math
import random
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.anomalies import (
    LOOP,
    POISON,
    PREPEND,
    ROUTE_SERVER,
    UNALLOCATED,
    AnomalyConfig,
    below,
    plant_anomalies,
)
from repro.bgp.propagation import propagate_all
from repro.bgp.rib import _stable_uniform, generate_rib_days
from repro.core.pipeline import PipelineConfig
from repro.net.aspath import ASPath, ASPathError, PathColumns
from repro.topology.catalog import build_world
from tests.bgp.anomaly_oracle import (
    AnomalyInjectionError,
    Draws,
    draw_below,
    inject_anomalies,
    make_loop,
    make_poisoned,
    make_prepended,
    make_route_server,
    make_unallocated,
)


@pytest.fixture
def draws():
    return Draws(42)


def keyed(rng):
    """Each record's roll taken from ``rng`` in turn, and its prefix
    index as the seed of its draws."""
    return dict(roll_for=lambda key: rng.random(), seed_for=lambda key: key[1])


class TestMakers:
    def test_loop(self, draws):
        path = ASPath.of(1, 2, 3, 4)
        assert not path.has_loop()
        for _ in range(20):
            assert make_loop(path, draws).has_loop()

    def test_loop_needs_two_ases(self, draws):
        with pytest.raises(AnomalyInjectionError):
            make_loop(ASPath.of(1), draws)

    def test_poisoned(self, draws):
        clique = frozenset({10, 11})
        path = ASPath.of(1, 10, 11, 2)
        poisoned = make_poisoned(path, clique, draws, filler=99)
        asns = poisoned.asns
        index = asns.index(99)
        assert asns[index - 1] in clique and asns[index + 1] in clique

    def test_poisoned_needs_clique_pair(self, draws):
        with pytest.raises(AnomalyInjectionError):
            make_poisoned(ASPath.of(1, 2, 3), frozenset({10}), draws, filler=99)

    def test_poisoned_filler_must_be_outside_clique(self, draws):
        clique = frozenset({10, 11})
        with pytest.raises(AnomalyInjectionError):
            make_poisoned(ASPath.of(10, 11), clique, draws, filler=10)

    def test_unallocated(self, draws):
        modified = make_unallocated(ASPath.of(1, 2, 3), 500000, draws)
        assert 500000 in modified

    def test_prepended(self, draws):
        path = ASPath.of(1, 2, 3)
        modified = make_prepended(path, draws)
        assert len(modified) > len(path)
        assert modified.collapse_prepending() == path

    def test_route_server(self):
        modified = make_route_server(ASPath.of(1, 2, 3), 777)
        assert modified.asns[1] == 777
        assert modified.without({777}) == ASPath.of(1, 2, 3)

    def test_route_server_needs_length(self):
        with pytest.raises(AnomalyInjectionError):
            make_route_server(ASPath.of(1), 777)


class TestConfig:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            AnomalyConfig(loop_rate=1.5)

    def test_none(self):
        config = AnomalyConfig.none()
        assert config.loop_rate == 0.0 and config.route_server_rate == 0.0


class TestInjection:
    @pytest.fixture
    def rng(self):
        return random.Random(42)

    def _records(self, count=2000):
        return [((0, i), ASPath.of(1, 10, 11, 2 + (i % 5))) for i in range(count)]

    def test_rates_produce_each_category(self, rng):
        config = AnomalyConfig(
            loop_rate=0.05, poison_rate=0.05, unallocated_rate=0.05,
            prepend_rate=0.05, route_server_rate=0.05,
        )
        overrides, summary = inject_anomalies(
            self._records(), config, clique=frozenset({10, 11}),
            unallocated_pool=[500000], route_servers=frozenset({777}),
            filler_pool=[1, 2, 3, 4, 5, 6], **keyed(rng),
        )
        assert summary.loops > 0
        assert summary.poisoned > 0
        assert summary.unallocated > 0
        assert summary.prepended > 0
        assert summary.route_server > 0
        assert len(overrides) == summary.total()

    def test_zero_config_injects_nothing(self, rng):
        overrides, summary = inject_anomalies(
            self._records(100), AnomalyConfig.none(), frozenset(), [1_000_000],
            frozenset(), **keyed(rng),
        )
        assert not overrides and summary.total() == 0

    def test_unallocated_requires_pool(self, rng):
        with pytest.raises(ValueError):
            inject_anomalies(
                self._records(10), AnomalyConfig(unallocated_rate=0.5),
                frozenset(), [], frozenset(), **keyed(rng),
            )


# -- the token-space planter against the per-path reference -----------------

#: ASNs 0-7 may form the clique, so short paths over 0-19 meet
#: adjacent clique pairs often and miss them often
ASNS = st.integers(0, 19)
RATES = st.sampled_from([0.0, 0.0, 0.03, 0.1, 0.25])


def bounds_of(config):
    """The five cumulative category bounds, summed as the reference
    sums them."""
    return list(accumulate((
        config.loop_rate, config.poison_rate, config.unallocated_rate,
        config.prepend_rate, config.route_server_rate,
    )))


@st.composite
def cases(draw):
    """Clean paths of 1-8 distinct ASNs with their rolls and seeds, and
    the world they are planted in."""
    config = AnomalyConfig(*(draw(RATES) for _ in range(5)))
    # a roll is uniform, or sits on a category bound or next to it
    edges = sorted({
        edge for bound in bounds_of(config)
        for edge in (bound, math.nextafter(bound, 0.0), math.nextafter(bound, 1.0))
        if 0.0 <= edge < 1.0
    })
    roll = st.one_of(
        st.floats(0.0, 1.0, exclude_max=True), st.sampled_from(edges)
    )
    count = draw(st.integers(1, 12))
    paths = draw(st.lists(
        st.lists(ASNS, min_size=1, max_size=8, unique=True),
        min_size=count, max_size=count,
    ))
    return dict(
        paths=paths,
        rolls=draw(st.lists(roll, min_size=count, max_size=count)),
        seeds=draw(st.lists(
            st.integers(0, 2**32 - 1), min_size=count, max_size=count
        )),
        config=config,
        clique=frozenset(draw(st.sets(st.integers(0, 7), max_size=6))),
        pool=draw(st.lists(st.integers(100_000, 100_015), max_size=3)),
        route_servers=frozenset(draw(st.sets(st.integers(500, 505), max_size=3))),
        fillers=draw(st.lists(st.integers(0, 30), max_size=4)),
    )


def reference(case):
    """The case planted one ``ASPath`` at a time: the overrides by
    ``(0, cell)`` key, and the summary."""
    paths, rolls, seeds = case["paths"], case["rolls"], case["seeds"]
    return inject_anomalies(
        [((0, i), ASPath(tuple(path))) for i, path in enumerate(paths)],
        case["config"], case["clique"], case["pool"], case["route_servers"],
        roll_for=lambda key: rolls[key[1]],
        seed_for=lambda key: seeds[key[1]],
        filler_pool=case["fillers"],
    )


def planter(case):
    """The case planted in token space: the planted cells, their paths
    and the summary."""
    paths = case["paths"]
    return plant_anomalies(
        PathColumns(
            np.fromiter((asn for path in paths for asn in path), dtype=np.int64),
            np.asarray([len(path) for path in paths], dtype=np.int64),
        ),
        np.arange(len(paths)), np.asarray(case["rolls"]),
        np.asarray(case["seeds"]), case["config"], case["clique"],
        case["pool"], case["route_servers"], case["fillers"],
    )


def assert_same_planting(case):
    """The planter plants the reference's cells, paths and summary;
    returns the summary."""
    overrides, summary = reference(case)
    planted, table, counts = planter(case)
    assert planted.tolist() == [key[1] for key in overrides]
    assert list(table) == list(overrides.values())
    assert counts == summary
    return counts, list(table)


class TestDraws:
    """The planter's vector draws against the oracle's scalar twin."""

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(1, 16))
    def test_vector_draw_equals_the_scalar_twin(self, data, count):
        """Per cell, with ``index`` and ``n`` scalars or per-cell arrays
        (the poison pair's draw index and the loop's spot bound are)."""

        def cells(low, high):
            return data.draw(st.lists(
                st.integers(low, high), min_size=count, max_size=count
            ))

        seeds, indices, bounds = cells(0, 2**32 - 1), cells(0, 3), cells(1, 2**31)
        vector = np.asarray(seeds, dtype=np.uint32)
        drawn = below(vector, np.asarray(indices), np.asarray(bounds))
        assert drawn.tolist() == [
            draw_below(*cell) for cell in zip(seeds, indices, bounds)
        ]
        assert ((0 <= drawn) & (drawn < np.asarray(bounds))).all()
        index, n = indices[0], bounds[0]
        assert below(vector, index, n).tolist() == [
            draw_below(seed, index, n) for seed in seeds
        ]
        assert not below(vector, index, 1).any()

    def test_draws_are_taken_in_turn(self):
        draws = Draws(12345)
        taken = [draws.randrange(10), draws.randint(1, 3), draws.choice([7, 8])]
        assert taken == [
            draw_below(12345, 0, 10), 1 + draw_below(12345, 1, 3),
            [7, 8][draw_below(12345, 2, 2)],
        ]


class TestPlanterAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(cases())
    def test_equal_cells_tokens_and_summary(self, case):
        if not case["pool"] and case["config"].unallocated_rate > 0:
            with pytest.raises(ValueError):
                reference(case)
            with pytest.raises(ValueError):
                planter(case)
            return
        assert_same_planting(case)

    def test_every_category_is_reached(self):
        """A fixed case that plants all five categories, so the
        generated cases are not the only witness."""
        paths = [[1, 10, 11, 2], [3], [4, 5], [10, 11], [6, 7, 8], [9, 12]]
        counts, _ = assert_same_planting(dict(
            paths=paths * 5, seeds=list(range(30)),
            rolls=[0.1] * 6 + [0.3] * 6 + [0.5] * 6 + [0.7] * 6 + [0.9] * 6,
            config=AnomalyConfig(0.2, 0.2, 0.2, 0.2, 0.2),
            clique=frozenset({10, 11}), pool=[500_000],
            route_servers=frozenset({777}), fillers=[1, 2, 10],
        ))
        # the one-AS path rolled for a loop falls through to poisoning,
        # and is skipped there with the four pairless poison rolls
        assert (counts.loops, counts.poisoned) == (5, 2)
        assert min(counts.unallocated, counts.prepended, counts.route_server) > 0

    @pytest.mark.parametrize(
        "clique,poisoned", [(frozenset({10, 11}), 3), (frozenset({0, 10, 11}), 2)]
    )
    def test_filler_fallbacks(self, clique, poisoned):
        """With no filler pool, a cell before the first path with an ASN
        outside the clique gets AS 0 (skipped when AS 0 is in the
        clique); later cells draw from that path's outside ASNs."""
        counts, table = assert_same_planting(dict(
            paths=[[10, 11], [1, 10, 11], [10, 11]], rolls=[0.0] * 3,
            seeds=[1, 2, 3], config=AnomalyConfig(0.0, 1.0, 0.0, 0.0, 0.0),
            clique=clique, pool=[], route_servers=frozenset(), fillers=[],
        ))
        assert counts.poisoned == poisoned
        assert table[-1] == ASPath.of(10, 1, 11)
        assert (table[0] == ASPath.of(10, 0, 11)) == (poisoned == 3)

    def test_a_fillerless_cell_takes_its_pair_with_its_first_draw(self):
        """Cells before the first path with an ASN outside the clique
        draw no filler, so their pair is their first draw: sixteen
        seeds over a path with three clique pairs reach all three."""
        counts, table = assert_same_planting(dict(
            paths=[[10, 11, 12, 13]] * 16 + [[1, 10, 11]], rolls=[0.0] * 17,
            seeds=list(range(17)), config=AnomalyConfig(0.0, 1.0, 0.0, 0.0, 0.0),
            clique=frozenset({10, 11, 12, 13}), pool=[],
            route_servers=frozenset(), fillers=[],
        ))
        assert counts.poisoned == 17
        assert len({path.asns for path in table[:16]}) == 3

    def test_negative_asn_is_rejected(self):
        case = dict(
            paths=[[1, 2, 3]], rolls=[0.0], seeds=[7],
            config=AnomalyConfig(0.0, 0.0, 1.0, 0.0, 0.0),
            clique=frozenset(), pool=[-5], route_servers=frozenset(),
            fillers=[],
        )
        with pytest.raises(ASPathError):
            reference(case)
        with pytest.raises(ASPathError):
            planter(case)


# -- the planted series against Table 1 --------------------------------------

def remove_prepending(seq):
    """Collapse each run of one ASN to a single hop (SNIPPETS.md
    snippets 1-2), and flag a loop by their set-size test: fewer
    distinct ASNs than collapsed hops means an AS repeats apart."""
    collapsed = [asn for at, asn in enumerate(seq) if not at or seq[at - 1] != asn]
    return collapsed, len(set(seq)) != len(collapsed)


def without_one(planted, clean):
    """The positions whose ASN, dropped from ``planted``, leaves
    ``clean``."""
    return [
        at for at in range(len(planted))
        if planted[:at] + planted[at + 1:] == clean
    ]


@pytest.fixture(scope="module", params=[("small", 0), ("default", 42)])
def planted_series(request):
    """Every planted cell of a pipeline-configured series as
    ``(category, clean ASNs, planted ASNs)``, its category read off the
    cell's own roll, plus the series."""
    name, seed = request.param
    world = build_world(name, seed)
    config = PipelineConfig(seed=seed)
    outcome = propagate_all(
        world.graph, keep=world.vp_asns(), tiebreak=config.tiebreak
    )
    series = generate_rib_days(world, outcome, config.rib, seed)
    bounds = bounds_of(config.rib.anomalies)
    cells = []
    for (vp_index, prefix_index), path in series.overrides().items():
        vp = series.vps[vp_index]
        prefix, origin = series.prefix_table[prefix_index]
        roll = _stable_uniform(seed, "anom", f"{vp.ip}|{prefix}")
        category = sum(bound <= roll for bound in bounds)
        cells.append((category, list(outcome.path(origin, vp.asn)), list(path)))
    return series, cells


class TestPlantedSeriesAgainstTable1:
    def test_categories_match_the_summary(self, planted_series):
        series, cells = planted_series
        counts = [0] * 5
        for category, _, _ in cells:
            counts[category] += 1
        summary = series.injection_summary
        assert counts == [
            summary.loops, summary.poisoned, summary.unallocated,
            summary.prepended, summary.route_server,
        ]

    def test_clean_paths_are_loop_free(self, planted_series):
        _, cells = planted_series
        for _, clean, _ in cells:
            assert remove_prepending(clean) == (clean, False)

    def test_prepends_collapse_to_the_clean_path(self, planted_series):
        _, cells = planted_series
        prepends = [cell for cell in cells if cell[0] == PREPEND]
        assert prepends
        for _, clean, planted in prepends:
            assert remove_prepending(planted) == (clean, False)
            assert 1 <= len(planted) - len(clean) <= 3

    def test_loops_are_flagged(self, planted_series):
        _, cells = planted_series
        loops = [cell for cell in cells if cell[0] == LOOP]
        assert loops
        for _, clean, planted in loops:
            collapsed, loopy = remove_prepending(planted)
            assert loopy and collapsed == planted
            assert without_one(planted, clean)

    def test_route_server_hops_drop_back_to_the_clean_path(self, planted_series):
        series, cells = planted_series
        servers = series.world.graph.route_servers()
        hops = [cell for cell in cells if cell[0] == ROUTE_SERVER]
        assert hops
        for _, clean, planted in hops:
            assert planted[1] in servers
            assert [asn for asn in planted if asn != planted[1]] == clean

    def test_unallocated_asns_are_unallocated(self, planted_series):
        series, cells = planted_series
        registry = series.world.graph.asn_registry
        unallocated = [cell for cell in cells if cell[0] == UNALLOCATED]
        assert unallocated
        for _, clean, planted in unallocated:
            [extra] = [asn for asn in planted if asn not in clean]
            assert not registry.is_allocated(extra)
            assert without_one(planted, clean) == [planted.index(extra)]

    def test_poisoning_fillers_sit_between_clique_ases(self, planted_series):
        series, cells = planted_series
        clique = series.world.graph.clique()
        for _, clean, planted in (cell for cell in cells if cell[0] == POISON):
            assert any(
                0 < at < len(planted) - 1 and planted[at] not in clique
                and planted[at - 1] in clique and planted[at + 1] in clique
                for at in without_one(planted, clean)
            )
