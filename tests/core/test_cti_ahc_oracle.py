"""CTI and AHC against values derived by hand (analytic oracle).

Same topology, VPs and paths as the cone and hegemony oracles
(``tests/core/test_cone_oracle.py``): the bgpsim 13-AS tree, one /24
(256 addresses) per AS, VPs at AS 1 (AA), AS 6 (AA) and AS 12 (BB),
country BB = {4, 5, 10-13}. Each expectation is checked on the
reference scorer over the view's records and through the one ranking
path, on an in-memory and on an mmap-backed store.

* **CTI:BB** (Gamero-Garrido et al., paper §1.3; the international
  view: the two AA VPs → the six BB prefixes, 1,536 addresses). Per VP,
  every AS on a path's transit suffix except the origin scores the
  prefix's addresses over ``k``, its distance from the origin. AS 1's
  VP: ``1 4`` and ``1 5`` give AS 1 256 each; ``1 4 10``, ``1 4 11``,
  ``1 5 12``, ``1 5 13`` give AS 4 or AS 5 256 and AS 1 128 each — so
  AS 1 1,024, AS 4 and AS 5 512. AS 6's VP climbs ``6 2 1`` over
  customer→provider links, so its suffixes start at AS 1 and score the
  same. Normalised by 1,536: AS 1 2/3, AS 4 and AS 5 1/3 at both VPs;
  with ``n = 2`` the 10% trim drops nothing (``k = 0``), so those are
  the scores. ASes 2 and 6 are on no suffix: absent.
* **AHC:BB** (IHR's baseline, paper §1.2.1; every VP, destinations
  the prefixes of the six ASes registered in BB). Per origin, each VP
  has one path, so an AS's per-VP score is 1 if it is on that path,
  else 0, and with three VPs the trim keeps the median: the local
  hegemony is 1 for an AS on at least two of the three paths, 0 for
  one on a single path. Toward 4: ``1 4``, ``6 2 1 4``, ``12 5 4`` —
  ASes 1 and 4 score 1; 2, 5, 6 and 12 score 0. Toward 10: ``1 4 10``,
  ``6 2 1 4 10``, ``12 5 4 10`` — 1, 4 and 10 score 1. Likewise toward
  11 (1, 4, 11), 5 (1, 5), 12 (``1 5 12``, ``6 2 1 5 12``, ``12`` — 1,
  5, 12) and 13 (1, 5, 13). With ``as_count`` weighting each origin
  weighs 1: AS 1 scores 6/6 = 1, AS 4 (origins 4, 10, 11) and AS 5
  (5, 12, 13) 3/6 = 1/2, each BB leaf 1/6, ASes 2 and 6 0.
  ``addresses`` weighting weighs each origin by its observed address
  footprint; here AS 4 owns a /22 (1,024 addresses) and the others 256
  each, 2,304 in all: AS 1 still 1, AS 4 (1,024 + 256 + 256)/2,304 =
  2/3, AS 5 768/2,304 = 1/3, each BB leaf 256/2,304 = 1/9. AS 4's
  bigger prefix changes no local hegemony: each origin has one prefix.

Every score is an exact ratio of integers, so values compare exactly.
"""

import dataclasses

import pytest

from repro.core.ahc import ahc_ranking, ahc_scores
from repro.core.cti import cti_ranking, cti_scores
from repro.core.sanitize import FilterReport
from repro.net.prefix import Prefix
from repro.perf.index import PathIndex
from repro.perf.pathstore import PathStore
from repro.perf.spill import MmapPathStore, SpillWriter
from tests.core.test_cone_oracle import BB, tree_oracle, tree_paths

LEAVES = {leaf: 1 / 6 for leaf in (10, 11, 12, 13)}

EXPECTED_CTI = {1: 2 / 3, 4: 1 / 3, 5: 1 / 3}

EXPECTED_AHC = {
    "as_count": {1: 1.0, 4: 0.5, 5: 0.5, **LEAVES, 2: 0.0, 6: 0.0},
    "addresses": {
        1: 1.0, 4: 2 / 3, 5: 1 / 3, **{leaf: 1 / 9 for leaf in LEAVES},
        2: 0.0, 6: 0.0,
    },
}


def with_big_prefix(records):
    """The tree's records with AS 4's prefix a /22 of 1,024 addresses."""
    return [
        dataclasses.replace(
            record, prefix=Prefix.parse("10.4.0.0/22"), addresses=1024,
        ) if record.origin == 4 else record
        for record in records
    ]


def tree_index(records, backend, directory):
    """A path index over ``records`` in a store of the given backend."""
    if backend == "memory":
        return PathIndex(PathStore(records))
    writer = SpillWriter(directory)
    report = FilterReport()
    writer.prepare(report)
    for record in records:
        writer.add(record)
    writer.seal(len(records), report)
    return PathIndex(MmapPathStore(directory))


def values(ranking):
    return {entry.asn: entry.value for entry in ranking.entries}


@pytest.mark.parametrize("backend", ["memory", "mmap"])
@pytest.mark.parametrize("path", ["reference", "ranking"])
def test_cti_matches_hand_derivation(path, backend, tmp_path):
    oracle = tree_oracle()
    view = tree_index(tree_paths().records, backend, tmp_path).view(
        "international", "BB"
    )
    if path == "reference":
        got = cti_scores(view.records, oracle, 6 * 256, trim=0.1)
    else:
        ranking = cti_ranking(view, oracle, trim=0.1)
        assert ranking.metric == "CTI:BB"
        got = values(ranking)
    assert got == EXPECTED_CTI


@pytest.mark.parametrize("backend", ["memory", "mmap"])
@pytest.mark.parametrize("path", ["reference", "ranking"])
@pytest.mark.parametrize("weighting", sorted(EXPECTED_AHC))
def test_ahc_matches_hand_derivation(weighting, path, backend, tmp_path):
    records = with_big_prefix(tree_paths().records)
    view = tree_index(records, backend, tmp_path).view("global")
    if path == "reference":
        got = ahc_scores(view.records, BB, trim=0.1, weighting=weighting)
    else:
        got = values(ahc_ranking(view, "BB", BB, trim=0.1, weighting=weighting))
    assert got == EXPECTED_AHC[weighting]
