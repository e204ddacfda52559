"""Customer cones against values derived by hand (analytic oracle).

The topology is the 13-AS tree of the bgpsim ``as-rel.txt`` fixture
(SNIPPETS.md, snippet 3; ``tests/oracles/inputs.py`` builds it)::

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

from repro.core.cone import cone_ranking
from repro.core.ranking import Ranking
from repro.perf.index import PathIndex

from tests.oracles import views as oracle_views
from tests.oracles.cone import cone_addresses, total_addresses
from tests.oracles.inputs import tree_oracle, tree_paths


LEAVES = (6, 7, 8, 9, 10, 11, 12, 13)

EXPECTED = {
    "CCG": {1: 3328, 2: 768, 3: 768, 4: 768, 5: 768,
            **{leaf: 256 for leaf in LEAVES}},
    "CCI:BB": {1: 1536, 4: 768, 5: 768, 10: 256, 11: 256, 12: 256, 13: 256},
    "CCN:BB": {4: 768, 5: 512, 10: 256, 11: 256, 12: 256, 13: 256},
}


def views(path):
    """The tree's three views: full scans (``naive``) or path-index
    lookups (``kernel``)."""
    paths = tree_paths()
    if path == "naive":
        return {
            "CCG": oracle_views.global_view(paths),
            "CCI:BB": oracle_views.international_view(paths, "BB"),
            "CCN:BB": oracle_views.national_view(paths, "BB"),
        }
    index = PathIndex.from_paths(paths)
    return {
        "CCG": index.view("global"),
        "CCI:BB": index.view("international", "BB"),
        "CCN:BB": index.view("national", "BB"),
    }


def ranked(path, metric):
    """The CC ranking of the view named ``metric``: from the oracle's
    :func:`~tests.oracles.cone.cone_addresses` over its records
    (``naive``), or through :func:`~repro.core.cone.cone_ranking`, the
    one ranking path (``kernel``)."""
    view, oracle = views(path)[metric], tree_oracle()
    if path == "kernel":
        return cone_ranking(view, oracle, metric)
    addresses = cone_addresses(view.records, oracle)
    total = total_addresses(view.records)
    return Ranking.from_scores(
        metric, {asn: float(n) for asn, n in addresses.items()},
        {asn: n / total for asn, n in addresses.items()},
    )


@pytest.mark.parametrize("metric", sorted(EXPECTED))
@pytest.mark.parametrize("path", ["naive", "kernel"])
def test_cone_addresses_match_hand_derivation(metric, path):
    ranking = ranked(path, metric)
    got = {entry.asn: entry.value for entry in ranking.entries}
    assert got == EXPECTED[metric]


@pytest.mark.parametrize("path", ["naive", "kernel"])
def test_shares_divide_by_the_view_space(path):
    ranking = ranked(path, "CCI:BB")
    assert ranking.top_asns(1) == [1]
    assert ranking.entries[0].share == 1.0  # all six BB prefixes
    assert ranking.entries[1].share == 0.5  # AS 4: three of six
