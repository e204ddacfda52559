"""AS hegemony against values derived by hand (analytic oracle).

Same topology, VPs and paths as the cone oracle
(``tests/core/test_cone_oracle.py``, built by
``tests/oracles/inputs.py``): the bgpsim 13-AS tree, one /24
per AS (so every path weighs the same and each per-VP score is a
fraction of that VP's path count), VPs at AS 1 (AA), AS 6 (AA) and
AS 12 (BB), country BB = {4, 5, 10-13}.

Fontugne et al.'s estimator (paper §1.2): per VP, an AS scores the
fraction of the VP's address-weighted paths that contain it (the VP's
own AS and the origin included); per AS, the per-VP scores — a 0 for a
VP none of whose paths cross it — are sorted and ``k = ceil(0.1·n)``
values are trimmed from each end, capped at ``(n - 1) // 2``, before
averaging.

* **AHG** (all 13 paths of each of the three VPs; ``k = 1``, so the
  median survives). AS 1 is on all 13 of its own VP's paths and on 7
  of AS 6's (``6 2 1``, then through 1 to 4, 5 and their four leaves)
  and 7 of AS 12's (``12 5 1``, then to 2, 3 and their four leaves):
  median(1, 7/13, 7/13) = 7/13. AS 2 is on 3 of AS 1's paths (2, 6,
  7), 12 of AS 6's (all but ``6``) and 3 of AS 12's: median(3/13,
  12/13, 3/13) = 3/13; AS 5 likewise (3, 3, 12 → 3/13), and ASes 3
  and 4 are on 3 paths of every VP: 3/13. A leaf is on one path (its
  own) of every VP outside it — 1/13 — and AS 6 and AS 12 are also on
  all 13 paths of their own VP: median(1/13, 1/13, 1) = 1/13, so every
  leaf scores 1/13.
* **AHI:BB** (the two AA VPs → the six BB prefixes; ``n = 2``, so
  ``k = 0`` and the plain mean). AS 1's VP: ``1 4``, ``1 5``, ``1 4
  10``, ``1 4 11``, ``1 5 12``, ``1 5 13`` — AS 1 on 6/6, AS 4 and
  AS 5 on 3/6 each, each BB leaf on 1/6. AS 6's VP reaches the same
  prefixes over ``6 2 1 …``: AS 6, 2 and 1 on 6/6, AS 4 and 5 on 3/6,
  leaves 1/6. Means: AS 1 (1 + 1)/2 = 1; AS 4 and 5 (1/2 + 1/2)/2 =
  1/2; AS 2 and 6 (0 + 1)/2 = 1/2; each BB leaf 1/6.
* **AHN:BB** (the BB VP at AS 12 → BB prefixes; one VP, untrimmed).
  Its paths ``12``, ``12 5``, ``12 5 13``, ``12 5 4``, ``12 5 4 10``,
  ``12 5 4 11``: AS 12 on 6/6, AS 5 on 5/6, AS 4 on 3/6 = 1/2, and
  ASes 10, 11, 13 on 1/6.

Every score is an exact ratio of address totals, so the expected
values are compared exactly.
"""

import pytest

from repro.core.hegemony import hegemony_ranking

from tests.core.test_cone_oracle import views
from tests.oracles.hegemony import hegemony_scores

EXPECTED = {
    "AHG": {
        1: 7 / 13, 2: 3 / 13, 3: 3 / 13, 4: 3 / 13, 5: 3 / 13,
        **{leaf: 1 / 13 for leaf in (6, 7, 8, 9, 10, 11, 12, 13)},
    },
    "AHI:BB": {
        1: 1.0, 2: 0.5, 4: 0.5, 5: 0.5, 6: 0.5,
        10: 1 / 6, 11: 1 / 6, 12: 1 / 6, 13: 1 / 6,
    },
    "AHN:BB": {12: 1.0, 5: 5 / 6, 4: 0.5, 10: 1 / 6, 11: 1 / 6, 13: 1 / 6},
}


#: the hegemony metric → the tree view (named by its cone metric)
VIEW_OF = {"AHG": "CCG", "AHI:BB": "CCI:BB", "AHN:BB": "CCN:BB"}


def scores(path, metric):
    """The AS hegemony of the view of ``metric``: the oracle's
    :func:`~tests.oracles.hegemony.hegemony_scores` over its records
    (``naive``), or :func:`~repro.core.hegemony.hegemony_ranking`, the
    one ranking path (``kernel``)."""
    view = views(path)[VIEW_OF[metric]]
    if path == "naive":
        return hegemony_scores(view.records, trim=0.1)
    ranking = hegemony_ranking(view, view.name, trim=0.1)
    return {entry.asn: entry.value for entry in ranking.entries}


@pytest.mark.parametrize("metric", sorted(EXPECTED))
@pytest.mark.parametrize("path", ["naive", "kernel"])
def test_hegemony_matches_hand_derivation(metric, path):
    assert scores(path, metric) == EXPECTED[metric]


@pytest.mark.parametrize("path", ["naive", "kernel"])
def test_three_vp_trim_keeps_the_median(path):
    """The paper's Figure-2 shape: with three VPs the 10% trim drops
    one score from each end, so AS 1's global hegemony is its median
    per-VP score, not the mean (1 + 7/13 + 7/13)/3."""
    got = scores(path, "AHG")
    assert max(got, key=got.get) == 1
    assert got[1] == 7 / 13
    assert got[1] != (1 + 7 / 13 + 7 / 13) / 3
