"""Failure-path integration: a mid-sweep crash → checkpoint resume →
output identical to an uninterrupted sweep, with and without global
metrics, and duplicate sweep units computed and banked once.
"""

import pytest

from repro import (
    GeneratorConfig,
    PipelineConfig,
    generate_world,
    run_pipeline,
    small_profiles,
)
from repro.resilience import Checkpoint, FaultPlan, InjectedCrash, sweep_key

SMALL = GeneratorConfig(
    profiles=small_profiles(), clique_homes=("US", "US", "SE", "JP")
)


@pytest.fixture(scope="module")
def world():
    return generate_world(SMALL, seed=1, name="small")


@pytest.fixture(scope="module")
def clean(world):
    return run_pipeline(world, PipelineConfig())


class TestSweepCheckpointResume:
    METRICS = ("CCI", "AHN")

    def test_resumed_sweep_matches_uninterrupted(self, world, clean, tmp_path):
        countries = tuple(clean.countries_with_national_view()[:2])
        uninterrupted = clean.rank_all(self.METRICS, countries)
        path = tmp_path / "sweep.ck"
        key = sweep_key(world.name, clean.config, self.METRICS, countries)

        crashing = run_pipeline(
            world,
            PipelineConfig(faults=FaultPlan(crash_after_units=2)),
        )
        with Checkpoint.open(path, key) as checkpoint:
            with pytest.raises(InjectedCrash):
                crashing.rank_all(self.METRICS, countries, checkpoint=checkpoint)

        resumed_result = run_pipeline(world, PipelineConfig())
        with Checkpoint.open(path, key) as checkpoint:
            assert checkpoint.loaded == 2  # the units banked before the crash
            resumed = resumed_result.rank_all(
                self.METRICS, countries, checkpoint=checkpoint
            )
        assert resumed == uninterrupted

    def test_full_checkpoint_skips_all_recomputation(self, world, clean, tmp_path):
        countries = tuple(clean.countries_with_national_view()[:1])
        path = tmp_path / "sweep.ck"
        key = sweep_key(world.name, clean.config, self.METRICS, countries)
        with Checkpoint.open(path, key) as checkpoint:
            full = clean.rank_all(self.METRICS, countries, checkpoint=checkpoint)
        fresh = run_pipeline(world, PipelineConfig())
        with Checkpoint.open(path, key) as checkpoint:
            assert checkpoint.loaded == len(full)
            assert fresh.rank_all(
                self.METRICS, countries, checkpoint=checkpoint
            ) == full


class TestGlobalMetricCheckpointResume:
    """Sweep resume covering the global metrics (CCG/AHG) too — their
    units sit under the ``<global>`` country key."""

    METRICS = ("CCG", "AHG", "CCI")

    def test_resumed_global_sweep_matches_uninterrupted(
        self, world, clean, tmp_path
    ):
        countries = tuple(clean.countries_with_national_view()[:1])
        uninterrupted = clean.rank_all(self.METRICS, countries)
        assert ("CCG", None) in uninterrupted
        assert ("AHG", None) in uninterrupted
        path = tmp_path / "sweep.ck"
        key = sweep_key(world.name, clean.config, self.METRICS, countries)

        crashing = run_pipeline(
            world,
            PipelineConfig(faults=FaultPlan(crash_after_units=2)),
        )
        with Checkpoint.open(path, key) as checkpoint:
            with pytest.raises(InjectedCrash):
                crashing.rank_all(self.METRICS, countries, checkpoint=checkpoint)

        resumed_result = run_pipeline(world, PipelineConfig())
        with Checkpoint.open(path, key) as checkpoint:
            assert checkpoint.loaded == 2  # CCG + AHG banked pre-crash
            assert checkpoint.get("ranking:CCG:<global>") is not None
            resumed = resumed_result.rank_all(
                self.METRICS, countries, checkpoint=checkpoint
            )
        assert resumed == uninterrupted


class TestSweepUnitDedupe:
    """Duplicate (metric, country) units are computed exactly once."""

    def test_duplicates_collapse_to_one_unit(self, clean):
        country = clean.countries_with_national_view()[0]
        rankings = clean.rank_all(
            ["CCI", "CCI"], [country, country.lower(), f" {country} "]
        )
        assert list(rankings) == [("CCI", country)]

    def test_duplicates_do_not_trip_the_fault_plan(self, world):
        # crash_after_units=2 with only one *distinct* unit: the old
        # per-request counting would have crashed on the repeat
        country_result = run_pipeline(
            world,
            PipelineConfig(faults=FaultPlan(crash_after_units=2)),
        )
        country = country_result.countries_with_national_view()[0]
        rankings = country_result.rank_all(["CCI", "CCI"], [country])
        assert list(rankings) == [("CCI", country)]

    def test_duplicates_write_one_checkpoint_unit(self, world, clean, tmp_path):
        country = clean.countries_with_national_view()[0]
        path = tmp_path / "sweep.ck"
        key = sweep_key(world.name, clean.config, ("CCI",), (country,))
        with Checkpoint.open(path, key) as checkpoint:
            clean.rank_all(["CCI", "CCI"], [country], checkpoint=checkpoint)
        unit_lines = [
            line for line in path.read_text().splitlines()
            if '"ranking:CCI:' in line
        ]
        assert len(unit_lines) == 1
