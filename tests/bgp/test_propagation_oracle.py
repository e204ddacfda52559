"""Routes on the bgpsim 13-AS tree against values derived by hand
(analytic oracle).

The tree is ``tests/core/test_cone_oracle.py``'s (SNIPPETS.md,
snippet 3): AS 1 provides transit to 2-5, 2-3 and 4-5 are peers, and
2, 3, 4, 5 provide transit to the leaves 6-7, 8-9, 10-11 and 12-13.

Toward origin 8, the route climbs 8 → 3 → 1 (customer routes at 3 and
1). AS 2 hears it over the 2-3 peer link, (2, 3, 8), and prefers that
PEER route to the longer provider route via 1. Everything else is a
provider route descending from the shortest exporter above it: 9
below 3; 4 and 5 below 1, then their leaves; 6 and 7 below 2's peer
route. Toward origin 6 the mirror image holds: 3 takes the PEER route
(3, 2, 6). No AS ever has two equal-length candidates, so both
tie-breaks agree.

Keeping only AS 13 prunes the down phase to its keep closure {1, 5,
13} (the ASes that have 13 in their customer cone): the sweep still
settles the up and across phases (8, 3, 1 and 2 for origin 8) and the
down chain 1 → 5 → 13, so the route at 13 is the unpruned one.
"""

import pytest

from repro.bgp.policy import Route, RouteClass
from repro.bgp.propagation import (
    _adjacency_of,
    _propagate,
    keep_closure,
    propagate,
    propagate_all,
)
from repro.topology.model import ASGraph

from tests.core.test_cone_oracle import AS_REL

C, P, V = RouteClass.CUSTOMER, RouteClass.PEER, RouteClass.PROVIDER


def routes(table):
    return {
        asn: Route(path, RouteClass.ORIGIN if len(path) == 1 else klass)
        for asn, (path, klass) in table.items()
    }


TOWARD_8 = routes({
    8: ((8,), None),
    3: ((3, 8), C), 1: ((1, 3, 8), C),
    2: ((2, 3, 8), P),
    9: ((9, 3, 8), V), 4: ((4, 1, 3, 8), V), 5: ((5, 1, 3, 8), V),
    6: ((6, 2, 3, 8), V), 7: ((7, 2, 3, 8), V),
    10: ((10, 4, 1, 3, 8), V), 11: ((11, 4, 1, 3, 8), V),
    12: ((12, 5, 1, 3, 8), V), 13: ((13, 5, 1, 3, 8), V),
})

TOWARD_6 = routes({
    6: ((6,), None),
    2: ((2, 6), C), 1: ((1, 2, 6), C),
    3: ((3, 2, 6), P),
    7: ((7, 2, 6), V), 4: ((4, 1, 2, 6), V), 5: ((5, 1, 2, 6), V),
    8: ((8, 3, 2, 6), V), 9: ((9, 3, 2, 6), V),
    10: ((10, 4, 1, 2, 6), V), 11: ((11, 4, 1, 2, 6), V),
    12: ((12, 5, 1, 2, 6), V), 13: ((13, 5, 1, 2, 6), V),
})

EXPECTED = {8: TOWARD_8, 6: TOWARD_6}
TIEBREAKS = ("asn", "hash")


@pytest.fixture(scope="module")
def tree():
    graph = ASGraph()
    for asn in range(1, 14):
        graph.add_as(asn)
    for line in AS_REL.splitlines():
        left, right, kind = (int(field) for field in line.split("|"))
        if kind == -1:
            graph.add_p2c(left, right)
        else:
            graph.add_p2p(left, right)
    return graph


@pytest.mark.parametrize("tiebreak", TIEBREAKS)
class TestTree:
    def test_reference(self, tree, tiebreak):
        adjacency = _adjacency_of(tree)
        for origin, expected in EXPECTED.items():
            assert _propagate(adjacency, origin, tiebreak) == expected

    def test_single_origin(self, tree, tiebreak):
        for origin, expected in EXPECTED.items():
            assert propagate(tree, origin, tiebreak) == expected

    @pytest.mark.parametrize("options", [{}, {"workers": 2}])
    def test_all_origins(self, tree, tiebreak, options):
        outcome = propagate_all(
            tree, origins=[6, 8], tiebreak=tiebreak, **options
        )
        assert outcome.routes == EXPECTED

    def test_keep_closure(self, tree, tiebreak):
        assert keep_closure(_adjacency_of(tree), {13}) == {1, 5, 13}
        outcome = propagate_all(
            tree, origins=[8], keep={13}, tiebreak=tiebreak,
        )
        assert outcome.routes == {8: {13: TOWARD_8[13]}}
