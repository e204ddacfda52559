"""Customer-cone tests, including the paper's Figure 1 worked example."""

import pytest

from repro.bgp.collectors import VantagePoint
from repro.core.cone import cone_ranking
from repro.core.sanitize import PathRecord
from repro.core.views import View
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.topology.model import ASGraph

from tests.oracles.cone import (
    cone_addresses,
    customer_cones,
    prefix_cones,
    transit_suffix,
)


def record(vp_asn, path, prefix="10.0.0.0/24", country="US", addresses=None):
    prefix_obj = Prefix.parse(prefix)
    return PathRecord(
        vp=VantagePoint(f"192.0.2.{vp_asn}", vp_asn, "c"),
        vp_country=country,
        prefix=prefix_obj,
        prefix_country=country,
        path=ASPath.parse(path) if isinstance(path, str) else path,
        addresses=addresses if addresses is not None else prefix_obj.num_addresses(),
    )


@pytest.fixture
def figure1_graph():
    """The topology of the paper's Figure 1.

    A, B, C are mutual peers. C<D, D<E, D<F, A<G, B<H (provider<customer).
    ASNs: A=1, B=2, C=3, D=4, E=5, F=6, G=7, H=8.
    """
    graph = ASGraph()
    for asn in range(1, 9):
        graph.add_as(asn)
    graph.add_p2p(1, 2)
    graph.add_p2p(1, 3)
    graph.add_p2p(2, 3)
    graph.add_p2c(3, 4)  # C<D
    graph.add_p2c(4, 5)  # D<E
    graph.add_p2c(4, 6)  # D<F
    graph.add_p2c(1, 7)  # A<G
    graph.add_p2c(2, 8)  # B<H
    return graph


class TestTransitSuffix:
    def test_pure_downhill(self, figure1_graph):
        # C D E is all provider->customer.
        assert transit_suffix(ASPath.of(3, 4, 5), figure1_graph) == (3, 4, 5)

    def test_peer_link_cuts(self, figure1_graph):
        # G A B H: c2p, p2p, p2c -> suffix is B H.
        assert transit_suffix(ASPath.of(7, 1, 2, 8), figure1_graph) == (2, 8)

    def test_climb_then_descend(self, figure1_graph):
        # G A C D E: c2p, p2p, p2c, p2c -> suffix C D E.
        assert transit_suffix(ASPath.of(7, 1, 3, 4, 5), figure1_graph) == (3, 4, 5)

    def test_origin_only(self, figure1_graph):
        # H B A G: c2p, p2p, p2c -> suffix A G... from H's side.
        assert transit_suffix(ASPath.of(8, 2, 1, 7), figure1_graph) == (1, 7)

    def test_unknown_link_stops(self, figure1_graph):
        # 99 is not in the graph: the unknown link bounds the suffix.
        assert transit_suffix(ASPath.of(99, 4, 5), figure1_graph) == (4, 5)

    def test_single_as(self, figure1_graph):
        assert transit_suffix(ASPath.of(5), figure1_graph) == (5,)


class TestFigure1Cones:
    """Reproduce Figure 1's cones from its two VPs' paths."""

    @pytest.fixture
    def records(self):
        # VP v_g in G sees: C<D<E, C<D<F (via A C D ...) and B<H (via A B H).
        # VP v_h in H sees the same C branch (via B C D ...) and A<G.
        return [
            record(7, ASPath.of(7, 1, 3, 4, 5), prefix="10.5.0.0/24"),
            record(7, ASPath.of(7, 1, 3, 4, 6), prefix="10.6.0.0/24"),
            record(7, ASPath.of(7, 1, 2, 8), prefix="10.8.0.0/24"),
            record(8, ASPath.of(8, 2, 3, 4, 5), prefix="10.5.0.0/24"),
            record(8, ASPath.of(8, 2, 3, 4, 6), prefix="10.6.0.0/24"),
            record(8, ASPath.of(8, 2, 1, 7), prefix="10.7.0.0/24"),
        ]

    def test_as_cones(self, figure1_graph, records):
        cones = customer_cones(records, figure1_graph)
        assert cones[3] == {3, 4, 5, 6}  # C sees D, E, F downstream
        assert cones[4] == {4, 5, 6}
        assert cones[2] == {2, 8}  # B<H seen from v_g
        assert cones[1] == {1, 7}  # A<G seen from v_h
        assert cones[5] == {5}

    def test_prefix_cones(self, figure1_graph, records):
        cones = prefix_cones(records, figure1_graph)
        assert cones[4] == {Prefix.parse("10.5.0.0/24"), Prefix.parse("10.6.0.0/24")}
        assert cones[2] == {Prefix.parse("10.8.0.0/24")}

    def test_cone_addresses(self, figure1_graph, records):
        addresses = cone_addresses(records, figure1_graph)
        assert addresses[4] == 2 * 256
        assert addresses[3] == 2 * 256
        assert addresses[1] == 256

    def test_addresses_not_double_counted(self, figure1_graph):
        # The same prefix seen from two VPs counts once.
        records = [
            record(7, ASPath.of(7, 1, 3, 4, 5), prefix="10.5.0.0/24"),
            record(8, ASPath.of(8, 2, 3, 4, 5), prefix="10.5.0.0/24"),
        ]
        assert cone_addresses(records, figure1_graph)[4] == 256


class TestConeRanking:
    def test_ranking_and_shares(self, figure1_graph):
        records = (
            record(7, ASPath.of(7, 1, 3, 4, 5), prefix="10.5.0.0/24"),
            record(7, ASPath.of(7, 1, 3, 4, 6), prefix="10.6.0.0/23"),
        )
        view = View.of("test", "US", records)
        ranking = cone_ranking(view, figure1_graph)
        # Total space = 256 + 512; C and D carry all of it.
        assert ranking.rank_of(3) in (1, 2)
        assert ranking.share_of(3) == pytest.approx(1.0)
        assert ranking.share_of(5) == pytest.approx(256 / 768)

    def test_explicit_denominator(self, figure1_graph):
        records = (record(7, ASPath.of(7, 1, 3, 4, 5), prefix="10.5.0.0/24"),)
        view = View.of("test", "US", records)
        ranking = cone_ranking(view, figure1_graph, total_addresses=2560)
        assert ranking.share_of(4) == pytest.approx(0.1)

    def test_metric_name_default(self, figure1_graph):
        view = View.of("test", "AU", (record(7, ASPath.of(7, 1, 3, 4, 5)),))
        assert cone_ranking(view, figure1_graph).metric == "CC:AU"
