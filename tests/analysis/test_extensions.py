"""Tests for the extension analyses: outbound views (§7 future work),
the sovereignty dependency matrix, market concentration, and the
address-weighted AHC variant."""

import pytest

from repro import run_pipeline
from repro.analysis.concentration import (
    concentration,
    country_concentrations,
    render_concentrations,
)
from repro.analysis.sovereignty import (
    dependency_matrix,
    render_dependencies,
)
from repro.core.ahc import ahc_ranking
from repro.core.ranking import Ranking
from repro.topology.paper_world import build_paper_world

from tests.oracles.views import outbound_view


@pytest.fixture(scope="module")
def result():
    return run_pipeline(build_paper_world())


class TestOutboundView:
    def test_disjoint_from_national(self, result):
        outbound = result.view("outbound", "AU")
        national = result.view("national", "AU")
        assert len(outbound) > 0
        outbound_keys = {(r.vp.ip, r.prefix) for r in outbound}
        national_keys = {(r.vp.ip, r.prefix) for r in national}
        assert not outbound_keys & national_keys

    def test_covers_vp_records(self, result):
        outbound = result.view("outbound", "AU")
        national = result.view("national", "AU")
        au_vp_records = sum(
            1 for r in result.paths.records if r.vp_country == "AU"
        )
        assert len(outbound) + len(national) == au_vp_records

    def test_outbound_metrics(self, result):
        """AHO: who carries Australia's paths to the world? The
        Telstra/Vocus internationals and the tier-1s."""
        aho = result.ranking("AHO", "AU")
        assert len(aho) > 0
        top = set(aho.top_asns(6))
        assert top & {4637, 4826, 1299, 3356, 1221}

    def test_function_matches_pipeline(self, result):
        assert outbound_view(result.paths, "AU").records == \
            result.view("outbound", "AU").records


class TestSovereignty:
    @pytest.fixture(scope="class")
    def matrix(self, result):
        return dependency_matrix(result, ["TW", "KZ", "AU", "US", "RU", "UA"])

    def test_taiwan_independent_of_china(self, matrix):
        """The paper's motivating question (§1): Taiwan's dependence on
        Chinese ISPs is negligible."""
        assert matrix.dependency("TW", "CN") < 0.05
        assert matrix.dependency("TW", "US") > 0.2

    def test_central_asia_depends_on_russia(self, matrix):
        assert matrix.dependency("KZ", "RU") > 0.5

    def test_ukraine_does_not(self, matrix):
        assert matrix.dependency("UA", "RU") < 0.1

    def test_self_reliance_bounds(self, matrix):
        for destination in ("TW", "AU", "US"):
            assert 0.0 <= matrix.self_reliance(destination) <= 1.0

    def test_dependents_of_russia(self, matrix):
        dependents = matrix.dependents_of("RU", threshold=0.2)
        assert "KZ" in dependents
        assert "UA" not in dependents

    def test_top_dependencies_exclude_self(self, matrix):
        tops = matrix.top_dependencies("AU", k=3)
        assert all(serving != "AU" for serving, _ in tops)
        values = [value for _, value in tops]
        assert values == sorted(values, reverse=True)

    def test_render(self, matrix):
        text = render_dependencies(matrix, "TW")
        assert "TW" in text and "self-reliance" in text

    def test_unknown_country_is_zero(self, matrix):
        assert matrix.dependency("TW", "ZZ") == 0.0
        assert matrix.self_reliance("ZZ") == 0.0


class TestConcentration:
    def test_us_least_concentrated(self, result):
        """§5.4: the U.S. market is observably less concentrated."""
        reports = country_concentrations(result, ("US", "AU", "RU", "JP"))
        assert reports["US"].hhi == min(r.hhi for r in reports.values())

    def test_hhi_bounds(self, result):
        report = concentration(result.ranking("AHN", "AU"))
        assert 0.0 < report.hhi <= 10000.0
        assert 0.0 < report.cr1 <= report.cr4 <= 1.0 + 1e-9

    def test_monopoly_hhi(self):
        ranking = Ranking.from_scores("m", {1: 1.0}, shares={1: 1.0})
        report = concentration(ranking)
        assert report.hhi == pytest.approx(10000.0)
        assert report.band() == "highly concentrated"

    def test_uniform_market_unconcentrated(self):
        scores = {asn: 1.0 for asn in range(1, 21)}
        ranking = Ranking.from_scores("m", scores, shares={a: 0.05 for a in scores})
        report = concentration(ranking)
        assert report.hhi == pytest.approx(500.0)
        assert report.band() == "unconcentrated"

    def test_empty_ranking(self):
        report = concentration(Ranking.from_scores("m", {}))
        assert report.hhi == 0.0 and report.contributors == 0

    def test_render(self, result):
        text = render_concentrations(country_concentrations(result, ("US", "AU")))
        assert "HHI" in text


class TestAhcWeighting:
    def test_address_weighting_reweights(self, result):
        equal = {e.asn: e.value for e in result.ranking("AHC", "AU").entries}
        weighted = {e.asn: e.value for e in result.ranking("AHC-A", "AU").entries}
        assert equal and weighted
        # The transit AS above the biggest eyeball (Telstra's 4637)
        # gains relative weight under address weighting.
        assert weighted.get(4637, 0.0) >= equal.get(4637, 0.0) - 1e-9

    def test_unknown_weighting_rejected(self, result):
        with pytest.raises(ValueError):
            ahc_ranking(result.view("global"), "AU", [1221], weighting="users")
