"""The correctness gate's digests, on the small world."""

import pytest

from bench import env

env.use_source()

from repro.core.pipeline import run_pipeline  # noqa: E402
from repro.core.ranking import RankEntry, Ranking  # noqa: E402
from repro.topology.catalog import build_world  # noqa: E402

from bench import child, compose  # noqa: E402
from bench.spans import Recorder  # noqa: E402

SEED = 7


def public_rankings(workload, scratch):
    world = build_world("small", SEED)
    result = run_pipeline(world, child.config_for(workload, SEED, scratch))
    units = child.sweep_units(workload, world)
    rankings = result.rank_all(
        dict.fromkeys(m for m, _ in units), dict.fromkeys(c for _, c in units if c)
    )
    result.close()
    return {unit: rankings[unit] for unit in units}


def traced_rankings(workload, scratch):
    rec = Recorder()
    world = build_world("small", SEED)
    result = compose.traced_pipeline(
        rec, world, child.config_for(workload, SEED, scratch)
    )
    rankings = compose.traced_sweep(rec, result, child.sweep_units(workload, world))
    result.close()
    return rankings


def test_digest_is_stable_across_runs():
    first = child.ranking_digest(public_rankings("rank-medium", None))
    assert first == child.ranking_digest(public_rankings("rank-medium", None))


@pytest.mark.parametrize("workload", ["rank-medium", "spill-medium"])
def test_traced_composition_matches_the_public_api(tmp_path, workload):
    public = public_rankings(workload, str(tmp_path / "public"))
    traced = traced_rankings(workload, str(tmp_path / "traced"))
    assert list(public) == list(traced)
    assert child.ranking_digest(public) == child.ranking_digest(traced)


def test_digest_sees_every_value():
    entries = [RankEntry(1, 64500, 10.0, 0.5), RankEntry(2, 64501, 5.0, 0.25)]
    base = {("CCI", "NL"): Ranking("CCI", entries, "NL")}
    nudged = [RankEntry(1, 64500, 10.0, 0.5), RankEntry(2, 64501, 5.0, 0.2500001)]
    other = {("CCI", "NL"): Ranking("CCI", nudged, "NL")}
    assert child.ranking_digest(base) != child.ranking_digest(other)
