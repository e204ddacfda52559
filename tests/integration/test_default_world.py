"""Integration checks on the generated default world (the one the
stability benchmarks use). Heavier than the small-world tests — one
pipeline run shared across the module. The Tables 9–12 sweep over this
world is held to the record-by-record oracles by the test matrix's
``default`` rows (``tests/oracles/matrix.py``), here and on both store
backends in ``tests/oracles/test_matrix.py``."""

import pytest

from repro import PipelineConfig, generate_world, run_pipeline
from repro.analysis.vp_distribution import single_vp_share, vp_census

from tests.oracles.matrix import check, world_case
from tests.topology.validator import validate_realism


@pytest.fixture(scope="module")
def world():
    return generate_world(seed=42, name="default")


@pytest.fixture(scope="module")
def result(world):
    return run_pipeline(world, PipelineConfig())


class TestWorldShape:
    def test_realism_envelope(self, world):
        report = validate_realism(world)
        assert report.ok, report.warnings
        assert report.ases > 500
        assert report.clique_size == 12

    def test_vp_plan_matches_table4(self, result):
        rows = vp_census(result, min_vps=7)
        codes = [row.country for row in rows]
        assert codes[:5] == ["NL", "GB", "US", "DE", "BR"]
        by_code = {row.country: row for row in rows}
        for code in ("AU", "JP", "RU", "US"):
            assert by_code[code].vp_ips >= 7

    def test_vp_concentration_healthy(self, result):
        assert single_vp_share(result) > 0.5


class TestPipelineScale:
    def test_filter_report_categories_all_fire(self, result):
        rejected = result.paths.report.rejected
        for category in ("unstable", "unallocated", "loop", "poisoned",
                         "vp_no_location", "covered", "prefix_no_location"):
            assert rejected[category] > 0, category

    def test_case_study_shapes(self, result):
        """The generated world reproduces the same qualitative split
        as the curated one, for every dual-AS case-study country."""
        graph = result.world.graph
        names = {node.name: node.asn for node in graph.nodes()}
        for code in ("AU", "JP", "RU"):
            dom = names.get(f"Incumbent-Dom-{code}")
            intl = names.get(f"Incumbent-Intl-{code}")
            if dom is None or intl is None:
                continue
            ahn = result.ranking("AHN", code)
            ahi = result.ranking("AHI", code)
            assert ahn.rank_of(dom) <= 3, code
            assert ahi.rank_of(intl) <= 3, code
            # the domestic AS matters more domestically than abroad
            assert ahn.rank_of(dom) <= (ahn.rank_of(intl) or 10**9), code

    def test_multinationals_top_global_cone(self, result):
        graph = result.world.graph
        top5 = result.ranking("CCG").top_asns(5)
        clique = graph.clique()
        assert sum(1 for asn in top5 if asn in clique) >= 3

    def test_every_metric_computes_for_every_cased_country(self, result):
        for code in result.countries_with_national_view():
            for metric in ("CCI", "CCN", "AHI", "AHN"):
                assert len(result.ranking(metric, code)) > 0


class TestIndexedSweep:
    def test_rank_all_equals_a_full_scan_sweep(self, result):
        """``rank_all`` (shared path index, per-view caches, columnar
        kernels) over the Tables 9–12 metrics and five qualifying
        countries equals the oracles' record-by-record rankings."""
        case = world_case(result, "default")
        for family in ("cone", "cti", "hegemony"):
            assert check(family, case) > 0
