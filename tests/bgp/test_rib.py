"""Tests for the lazy RIB series."""

import numpy as np
import pytest

from repro.bgp.anomalies import AnomalyConfig
from repro.bgp.propagation import propagate_all
from repro.bgp.rib import RibGenerationConfig, RibSeries, generate_rib_days
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.topology import GeneratorConfig, generate_world, small_profiles
from repro.topology.catalog import build_world


@pytest.fixture(scope="module")
def world():
    return generate_world(
        GeneratorConfig(profiles=small_profiles(), clique_homes=("US", "US", "SE", "JP")),
        seed=5,
    )


@pytest.fixture(scope="module")
def outcome(world):
    return propagate_all(world.graph, keep=world.vp_asns())


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RibGenerationConfig(days=0)
        with pytest.raises(ValueError):
            RibGenerationConfig(churn_rate=1.5)
        with pytest.raises(ValueError):
            RibGenerationConfig(vp_visibility=0.0)


class TestSeries:
    def test_deterministic(self, world, outcome):
        a = generate_rib_days(world, outcome, seed=9)
        b = generate_rib_days(world, outcome, seed=9)
        assert a.num_records() == b.num_records()
        assert a.unstable_days == b.unstable_days
        assert a.overrides() == b.overrides()

    def test_seed_changes_noise(self, world, outcome):
        a = generate_rib_days(world, outcome, seed=9)
        b = generate_rib_days(world, outcome, seed=10)
        assert a.unstable_days != b.unstable_days

    def test_records_match_day_sum(self, world, outcome):
        series = generate_rib_days(world, outcome, seed=9)
        per_day = sum(record.days_present for record in series.records())
        assert per_day == series.total_announcements()

    def test_record_day_counts(self, world, outcome):
        series = generate_rib_days(world, outcome, seed=9)
        days = series.config.days
        for record in series.records():
            assert 1 <= record.days_present <= days
            assert record.total_days == days

    def test_unstable_records_flagged(self, world, outcome):
        series = generate_rib_days(world, outcome, seed=9)
        unstable_prefixes = {
            series.prefix_table[index][0] for index in series.unstable_days
        }
        assert unstable_prefixes  # default churn produces some
        for record in series.records():
            assert record.stable == (record.prefix not in unstable_prefixes)

    def test_paths_end_at_prefix_origin(self, world, outcome):
        series = generate_rib_days(
            world, outcome,
            RibGenerationConfig(anomalies=AnomalyConfig.none()),
            seed=9,
        )
        origin_of = {prefix: origin for prefix, origin in series.prefix_table}
        for record in series.records():
            assert record.path.origin == origin_of[record.prefix]

    def test_paths_start_at_vp_asn(self, world, outcome):
        series = generate_rib_days(
            world, outcome,
            RibGenerationConfig(anomalies=AnomalyConfig.none()),
            seed=9,
        )
        for record in series.records():
            assert record.path.collector_side == record.vp.asn

    def test_clean_config_has_no_overrides(self, world, outcome):
        series = generate_rib_days(
            world, outcome,
            RibGenerationConfig(anomalies=AnomalyConfig.none()),
            seed=9,
        )
        assert not series.overrides()
        assert series.injection_summary.total() == 0

    def test_full_visibility_no_missing(self, world, outcome):
        series = generate_rib_days(
            world, outcome,
            RibGenerationConfig(vp_visibility=1.0, anomalies=AnomalyConfig.none()),
            seed=9,
        )
        # Every VP sees every reachable origin's prefixes.
        reachable = 0
        vps = series.vps
        for vp in vps:
            for prefix, origin in series.prefix_table:
                if outcome.path(origin, vp.asn) is not None:
                    reachable += 1
        assert series.num_records() == reachable


@pytest.mark.parametrize("tier", ["small", "default"])
def test_path_table_holds_no_growth_slack(tier):
    """The windows' path table — clean paths, then the planted override
    paths — is built at its final size: a pipeline result keeps no
    spare capacity behind its columns for its whole life."""
    result = run_pipeline(build_world(tier, 42), PipelineConfig(seed=42))
    series = result.ribs
    paths = next(series.windows()).tables.paths
    # the override paths close the table: the windows read path
    # ``tail + k`` at the k-th planted cell, in cell order
    tail = len(paths) - series.injection_summary.total()
    vp, prefix, ids = (
        np.concatenate(column)
        for column in zip(*((w.vp, w.prefix, w.path) for w in series.windows()))
    )
    planted = ids >= tail
    assert planted.any()
    assert ids[planted].tolist() == list(range(tail, len(paths)))
    assert list(zip(vp[planted].tolist(), prefix[planted].tolist())) == list(
        series.overrides()
    )
    # the columns' capacity (private) equals their used length
    assert len(paths._tokens) == len(paths.tokens)
    assert len(paths._offsets) == len(paths._lengths) == len(paths)
