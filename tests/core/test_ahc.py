"""Tests for the AHC (IHR country hegemony) baseline."""

import pytest

from repro.core.ahc import ahc_ranking
from repro.core.sanitize import FilterReport, PathSet
from repro.perf.index import PathIndex
from repro.net.prefix import Prefix

from tests.oracles import inputs
from tests.oracles.hegemony import ahc_scores


def record(vp_ip, path, prefix, prefix_country="AU"):
    addresses = Prefix.parse(prefix).num_addresses()
    return inputs.record(vp_ip, path, prefix, addresses, prefix_country=prefix_country)


class TestAhcScores:
    def test_equal_weighting_across_origins(self):
        # Origin 8 (one big prefix) depends on AS 5; origin 9 (one small
        # prefix) depends on AS 6. AHC weights the origins equally, so
        # AS 5 and AS 6 tie despite the address difference.
        records = [
            record("10.0.0.1", "1 5 8", "1.0.0.0/8"),
            record("10.0.0.1", "1 6 9", "2.0.0.0/24"),
        ]
        scores = ahc_scores(records, country_origins=[8, 9])
        assert scores[5] == pytest.approx(scores[6])
        assert scores[5] == pytest.approx(0.5)

    def test_shared_transit_scores_double(self):
        records = [
            record("10.0.0.1", "1 5 8", "1.0.0.0/24"),
            record("10.0.0.1", "1 5 9", "2.0.0.0/24"),
        ]
        scores = ahc_scores(records, country_origins=[8, 9])
        assert scores[5] == pytest.approx(1.0)

    def test_registration_country_selector(self):
        # Origin 9's prefix geolocates to AU but 9 is NOT registered in
        # the target country: AHC ignores it (the Amazon discrepancy).
        records = [
            record("10.0.0.1", "1 5 8", "1.0.0.0/24"),
            record("10.0.0.1", "1 6 9", "2.0.0.0/24", prefix_country="AU"),
        ]
        scores = ahc_scores(records, country_origins=[8])
        assert 6 not in scores

    def test_unobserved_origins_do_not_dilute(self):
        records = [record("10.0.0.1", "1 5 8", "1.0.0.0/24")]
        scores = ahc_scores(records, country_origins=[8, 42, 43])
        assert scores[5] == pytest.approx(1.0)

    def test_no_observed_origins(self):
        assert ahc_scores([], country_origins=[8]) == {}


class TestAhcRanking:
    def test_ranking(self):
        records = [
            record("10.0.0.1", "1 5 8", "1.0.0.0/24"),
            record("10.0.0.1", "1 5 9", "2.0.0.0/24"),
            record("10.0.0.1", "1 6 9", "3.0.0.0/24"),
        ]
        paths = PathSet(records=records, report=FilterReport())
        view = PathIndex.from_paths(paths).view("global")
        ranking = ahc_ranking(view, "AU", [8, 9])
        assert ranking.metric == "AHC:AU"
        assert ranking.rank_of(5) is not None
        assert ranking.rank_of(1) == 1  # the VP-side AS is on every path
