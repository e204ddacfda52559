"""Integration checks on the generated default world (the one the
stability benchmarks use). Heavier than the small-world tests — one
pipeline run shared across the module."""

import pytest

from repro import PipelineConfig, generate_world, run_pipeline
from repro.analysis.vp_distribution import single_vp_share, vp_census
from repro.core.cone import cone_addresses
from repro.core.cti import cti_scores
from repro.core.hegemony import hegemony_scores
from repro.core.ranking import Ranking
from repro.core.registry import get_spec
from repro.topology.model import ASRole
from repro.topology.validator import validate_realism


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


#: the paper's four country metrics plus the CTI baseline — the
#: composition of the Tables 9–12 sweeps
SWEEP_METRICS = ("CCI", "CCN", "AHI", "AHN", "CTI")

#: full-scan view selectors, keyed by the registry's view kind: does a
#: record belong to the view of ``country``?
NAIVE_VIEWS = {
    "international": lambda r, country: (
        r.vp_country != country and r.prefix_country == country
    ),
    "national": lambda r, country: (
        r.vp_country == country and r.prefix_country == country
    ),
}


def naive_ranking(result, records, metric, country):
    """One ranking with no engine: the view is a full scan of the
    record list, every intermediate comes from the reference scorers."""
    spec = get_spec(metric)
    keep = NAIVE_VIEWS[spec.view_kind]
    view = [record for record in records if keep(record, country)]
    label = f"{metric}:{country}"
    trim = result.config.trim
    total = sum({record.prefix: record.addresses for record in view}.values())
    if spec.family == "cone":
        addresses = cone_addresses(view, result.oracle)
        return Ranking.from_scores(
            label, {asn: float(n) for asn, n in addresses.items()},
            {asn: n / total for asn, n in addresses.items()} if total else None,
            country,
        )
    if spec.family == "hegemony":
        scores = hegemony_scores(view, trim)
    else:
        scores = cti_scores(view, result.oracle, total, trim)
    return Ranking.from_scores(label, scores, scores, country)


class TestIndexedSweep:
    def test_rank_all_equals_a_full_scan_sweep(self, result):
        """``rank_all`` (shared path index, per-view caches, columnar
        kernels) over the Tables 9–12 metrics and five qualifying
        countries equals a sweep that rescans every record per unit."""
        countries = result.countries_with_national_view()[:5]
        assert len(countries) == 5
        indexed = result.rank_all(SWEEP_METRICS, countries)
        records = list(result.paths.records)
        for metric in SWEEP_METRICS:
            for country in countries:
                naive = naive_ranking(result, records, metric, country)
                assert [(e.asn, e.value, e.share) for e in naive.entries] == [
                    (e.asn, e.value, e.share)
                    for e in indexed[metric, country].entries
                ], (metric, country)
