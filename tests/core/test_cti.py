"""Tests for the CTI baseline."""

import pytest

from repro.bgp.collectors import VantagePoint
from repro.core.cti import cti_ranking, cti_scores
from repro.core.sanitize import PathRecord
from repro.core.views import View
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.topology.model import ASGraph


def graph_chain():
    """1 -> 2 -> 3 (providers left), plus peer 1 -- 9."""
    graph = ASGraph()
    for asn in (1, 2, 3, 9):
        graph.add_as(asn)
    graph.add_p2c(1, 2)
    graph.add_p2c(2, 3)
    graph.add_p2p(1, 9)
    return graph


def record(vp_ip, path, prefix, country="AU"):
    return PathRecord(
        vp=VantagePoint(vp_ip, int(path.split()[0]), "c"),
        vp_country="US",
        prefix=Prefix.parse(prefix),
        prefix_country=country,
        path=ASPath.parse(path),
        addresses=Prefix.parse(prefix).num_addresses(),
    )


class TestCtiScores:
    def test_reverse_distance_weights(self):
        graph = graph_chain()
        records = [record("10.0.0.1", "1 2 3", "1.0.0.0/24")]
        scores = cti_scores(records, graph, total_addresses=256)
        # Origin 3 scores 0 (not present); 2 is 1 hop up: weight 1/1;
        # 1 is 2 hops up: weight 1/2.
        assert 3 not in scores
        assert scores[2] == pytest.approx(1.0)
        assert scores[1] == pytest.approx(0.5)

    def test_transit_only(self):
        graph = graph_chain()
        # Path crossing the 9--1 peer link: 9 is not on the transit
        # suffix, so it never scores.
        records = [record("10.0.0.9", "9 1 2 3", "1.0.0.0/24")]
        scores = cti_scores(records, graph, total_addresses=256)
        assert 9 not in scores
        assert scores[2] == pytest.approx(1.0)

    def test_normalization_by_country_space(self):
        graph = graph_chain()
        records = [record("10.0.0.1", "1 2 3", "1.0.0.0/24")]
        scores = cti_scores(records, graph, total_addresses=512)
        assert scores[2] == pytest.approx(0.5)

    def test_zero_total(self):
        graph = graph_chain()
        assert cti_scores([], graph, total_addresses=0) == {}

    def test_vp_trimming(self):
        graph = graph_chain()
        records = [
            record(f"10.0.0.{i}", "1 2 3", "1.0.0.0/24") for i in range(1, 4)
        ]
        # Make one VP see nothing through AS 2 toward a second prefix —
        # actually simpler: all VPs agree, trimming keeps the middle.
        scores = cti_scores(records, graph, total_addresses=256)
        assert scores[2] == pytest.approx(1.0)


class TestCtiRanking:
    def test_ranking(self):
        graph = graph_chain()
        records = (
            record("10.0.0.1", "1 2 3", "1.0.0.0/24"),
            record("10.0.0.1", "1 2 4", "1.1.0.0/24"),
        )
        # AS 4 is unknown to the graph: the unknown link bounds the
        # suffix, so only AS 4's own path tail contributes.
        view = View.of("international:AU", "AU", records)
        ranking = cti_ranking(view, graph)
        assert ranking.metric == "CTI:AU"
        assert ranking.rank_of(2) == 1


class TestPaperOrderingClaim:
    def test_cti_between_cc_and_ah_for_aolp(self):
        """§1.3: for an AS originating large prefixes (AOLP), CTI scores
        the origin lower than CC/AH would, and its adjacent provider
        relatively higher."""
        from repro.core.cone import cone_addresses
        from repro.core.hegemony import hegemony_scores

        graph = graph_chain()
        records = [record("10.0.0.1", "1 2 3", "1.0.0.0/24")]
        cti = cti_scores(records, graph, total_addresses=256)
        ah = hegemony_scores(records)
        cc = cone_addresses(records, graph)
        # Origin 3: visible to AH and CC (its own cone), invisible to CTI.
        assert ah[3] > 0 and cc[3] > 0
        assert 3 not in cti
        # Direct provider 2 gets full CTI credit.
        assert cti[2] == pytest.approx(1.0)
