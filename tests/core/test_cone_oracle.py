"""Customer cones against values derived by hand (analytic oracle).

The topology is the 13-AS tree of the bgpsim ``as-rel.txt`` fixture
(SNIPPETS.md, snippet 3)::

            _________1_________
           /       /   \\       \\
          2 ----- 3       4 ----- 5
         / \\     / \\     / \\     / \\
        6   7   8   9   10  11  12  13

AS 1 provides transit to 2-5, 2-3 and 4-5 are peers, and 2, 3, 4, 5
provide transit to the leaves below them. Every AS originates one /24
(256 addresses); ASes 4, 5 and 10-13 are in country BB, the rest in AA.
VPs sit at AS 1 (AA), AS 6 (AA) and AS 12 (BB); each reaches every
prefix over its valley-free path (up to the first shared provider or
peer, then down).

The transit suffix of a path is its longest provider→customer tail, and
an AS's cone is itself plus every AS below it on some suffix (§3):

* **CCG** (all records). AS 1's VP sees every AS on a downhill path, so
  AS 1's cone is all 13 ASes: 13 x 256 = 3,328 addresses. Each of
  ASes 2-5 has its two leaves below it (768); a leaf has only itself
  (256). No suffix from the other VPs adds anything: theirs start at
  the first provider→customer link (AS 6's ``6 2 1 4 10`` has suffix
  ``1 4 10``; its ``6 2 3 8`` crosses the 2-3 peer link, suffix ``3 8``).
* **CCI:BB** (VPs outside BB → prefixes in BB: the six prefixes of
  4, 5, 10-13). Both AA VPs reach them through AS 1 (``1 4 10``,
  ``6 2 1 5 12`` → ``1 5 12``), so AS 1 holds all six: 1,536; AS 4 holds
  4, 10, 11 and AS 5 holds 5, 12, 13: 768 each.
* **CCN:BB** (the BB VP at AS 12 → BB prefixes). Its paths climb to
  AS 5 (``12 5 13``: suffix ``5 13``) and cross the 5-4 peer link to
  reach AS 4's side (``12 5 4 10``: suffix ``4 10``). AS 4 holds 4, 10,
  11 (768); AS 5 holds 5 and 13 (512) — AS 12 reaches it from below;
  AS 1 is on no path, so it is absent.
"""

import pytest

from repro.bgp.collectors import VantagePoint
from repro.core.cone import cone_addresses, cone_ranking
from repro.core.ranking import Ranking
from repro.core.sanitize import FilterReport, PathRecord, PathSet
from repro.core.views import global_view, international_view, national_view
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.relationships.inference import InferredRelationships

#: the fixture's relationship lines: ``a|b|-1`` = a provides transit
#: to b, ``a|b|0`` = peers
AS_REL = """\
1|2|-1
1|3|-1
1|4|-1
1|5|-1
2|3|0
4|5|0
2|6|-1
2|7|-1
3|8|-1
3|9|-1
4|10|-1
4|11|-1
5|12|-1
5|13|-1
"""

BB = {4, 5, 10, 11, 12, 13}

#: each VP's valley-free path to every origin AS
PATHS = {
    1: {
        1: "1", 2: "1 2", 3: "1 3", 4: "1 4", 5: "1 5",
        6: "1 2 6", 7: "1 2 7", 8: "1 3 8", 9: "1 3 9",
        10: "1 4 10", 11: "1 4 11", 12: "1 5 12", 13: "1 5 13",
    },
    6: {
        6: "6", 2: "6 2", 7: "6 2 7", 3: "6 2 3", 8: "6 2 3 8",
        9: "6 2 3 9", 1: "6 2 1", 4: "6 2 1 4", 10: "6 2 1 4 10",
        11: "6 2 1 4 11", 5: "6 2 1 5", 12: "6 2 1 5 12",
        13: "6 2 1 5 13",
    },
    12: {
        12: "12", 5: "12 5", 13: "12 5 13", 4: "12 5 4",
        10: "12 5 4 10", 11: "12 5 4 11", 1: "12 5 1", 2: "12 5 1 2",
        6: "12 5 1 2 6", 7: "12 5 1 2 7", 3: "12 5 1 3",
        8: "12 5 1 3 8", 9: "12 5 1 3 9",
    },
}


def country(asn):
    return "BB" if asn in BB else "AA"


def tree_oracle():
    labels = {}
    for line in AS_REL.splitlines():
        left, right, kind = (int(field) for field in line.split("|"))
        labels[(left, right)] = "p2c" if kind == -1 else "p2p"
    return InferredRelationships(clique=frozenset({1}), labels=labels)


def tree_paths():
    records = [
        PathRecord(
            vp=VantagePoint(f"10.0.0.{vp}", vp, "rrc00"),
            vp_country=country(vp),
            prefix=Prefix.parse(f"10.{origin}.0.0/24"),
            prefix_country=country(origin),
            path=ASPath.parse(path),
            addresses=256,
        )
        for vp, paths in PATHS.items()
        for origin, path in paths.items()
    ]
    return PathSet(records=records, report=FilterReport())


LEAVES = (6, 7, 8, 9, 10, 11, 12, 13)

EXPECTED = {
    "CCG": {1: 3328, 2: 768, 3: 768, 4: 768, 5: 768,
            **{leaf: 256 for leaf in LEAVES}},
    "CCI:BB": {1: 1536, 4: 768, 5: 768, 10: 256, 11: 256, 12: 256, 13: 256},
    "CCN:BB": {4: 768, 5: 512, 10: 256, 11: 256, 12: 256, 13: 256},
}


def views():
    paths = tree_paths()
    return {
        "CCG": global_view(paths),
        "CCI:BB": international_view(paths, "BB"),
        "CCN:BB": national_view(paths, "BB"),
    }


def ranked(path, view, oracle, metric):
    """``view``'s CC ranking: from the reference
    :func:`~repro.core.cone.cone_addresses` over its records
    (``naive``), or through :func:`~repro.core.cone.cone_ranking`, the
    one ranking path (``kernel``)."""
    if path == "kernel":
        return cone_ranking(view, oracle, metric)
    addresses = cone_addresses(view.records, oracle)
    total = sum({r.prefix: r.addresses for r in view.records}.values())
    return Ranking.from_scores(
        metric, {asn: float(n) for asn, n in addresses.items()},
        {asn: n / total for asn, n in addresses.items()},
    )


@pytest.mark.parametrize("metric", sorted(EXPECTED))
@pytest.mark.parametrize("path", ["naive", "kernel"])
def test_cone_addresses_match_hand_derivation(metric, path):
    ranking = ranked(path, views()[metric], tree_oracle(), metric)
    got = {entry.asn: entry.value for entry in ranking.entries}
    assert got == EXPECTED[metric]


@pytest.mark.parametrize("path", ["naive", "kernel"])
def test_shares_divide_by_the_view_space(path):
    ranking = ranked(path, views()["CCI:BB"], tree_oracle(), "CCI:BB")
    assert ranking.top_asns(1) == [1]
    assert ranking.entries[0].share == 1.0  # all six BB prefixes
    assert ranking.entries[1].share == 0.5  # AS 4: three of six
