"""Tests for the topology realism validator."""

import pytest

from repro.topology import GeneratorConfig, generate_world, small_profiles
from repro.topology.model import ASGraph, ASRole
from repro.topology.paper_world import build_paper_world
from repro.topology.world import World

from tests.topology.validator import validate_realism


class TestGeneratedWorlds:
    def test_small_world_realistic(self):
        world = generate_world(
            GeneratorConfig(profiles=small_profiles(), clique_homes=("US", "US", "SE", "JP")),
            seed=5,
        )
        report = validate_realism(world)
        assert report.ok, report.warnings
        assert report.clique_size == 4
        assert report.upstream_connected == pytest.approx(1.0)
        assert report.max_hierarchy_depth <= 8

    def test_paper_world_realistic(self):
        report = validate_realism(build_paper_world())
        assert report.ok, report.warnings
        assert report.stub_share > 0.3
        assert report.p2c_edges > report.p2p_edges

    def test_render(self):
        world = generate_world(
            GeneratorConfig(profiles=small_profiles(), clique_homes=("US", "SE")),
            seed=5,
        )
        text = validate_realism(world).render()
        assert "clique" in text and "ASes" in text


class TestDegenerateWorlds:
    def test_no_clique_flagged(self):
        graph = ASGraph()
        graph.add_as(1, role=ASRole.TRANSIT)
        graph.add_as(2, role=ASRole.STUB)
        graph.add_p2c(1, 2)
        report = validate_realism(World(graph))
        assert any("clique" in w for w in report.warnings)

    def test_unmeshed_clique_flagged(self):
        graph = ASGraph()
        graph.add_as(1, role=ASRole.CLIQUE)
        graph.add_as(2, role=ASRole.CLIQUE)
        graph.add_as(3, role=ASRole.STUB)
        graph.add_p2c(1, 3)
        report = validate_realism(World(graph))
        assert any("meshed" in w for w in report.warnings)

    def test_clique_with_provider_flagged(self):
        graph = ASGraph()
        graph.add_as(1, role=ASRole.CLIQUE)
        graph.add_as(2, role=ASRole.TRANSIT)
        graph.add_p2c(2, 1)
        report = validate_realism(World(graph))
        assert any("buys transit" in w for w in report.warnings)

    def test_stranded_as_flagged(self):
        graph = ASGraph()
        graph.add_as(1, role=ASRole.CLIQUE)
        for asn in (2, 3, 4, 5, 6):
            graph.add_as(asn, role=ASRole.STUB)
        graph.add_p2c(1, 2)
        # ASes 3-6 are islands.
        report = validate_realism(World(graph))
        assert any("reach the top tier" in w for w in report.warnings)

    def test_peering_heavy_flagged(self):
        graph = ASGraph()
        graph.add_as(1, role=ASRole.CLIQUE)
        for asn in (2, 3, 4):
            graph.add_as(asn, role=ASRole.STUB)
            graph.add_p2p(1, asn)
        report = validate_realism(World(graph))
        assert any("outnumber transit" in w for w in report.warnings)
