"""Failure-path integration: a mid-sweep crash → store resume →
output identical to an uninterrupted sweep, with and without global
metrics; a reordered or narrowed sweep resumes the units it shares;
and duplicate sweep units computed and banked once.
"""

import pytest

from repro import (
    GeneratorConfig,
    PipelineConfig,
    generate_world,
    run_pipeline,
    small_profiles,
)
from repro.core.pipeline import PipelineResult
from repro.core.registry import get_spec
from repro.resilience import ArtifactStore, FaultPlan, InjectedCrash, store_key

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
        key = store_key(world, clean.config)

        crashing = run_pipeline(
            world,
            PipelineConfig(faults=FaultPlan(crash_after_units=2)),
        )
        with ArtifactStore(key, path=path) as store:
            with pytest.raises(InjectedCrash):
                crashing.rank_all(self.METRICS, countries, store=store)

        resumed_result = run_pipeline(world, PipelineConfig())
        with ArtifactStore(key, path=path) as store:
            assert store.persisted == 2  # the units banked before the crash
            resumed = resumed_result.rank_all(
                self.METRICS, countries, store=store
            )
        assert resumed == uninterrupted

    def test_full_checkpoint_skips_all_recomputation(self, world, clean, tmp_path):
        countries = tuple(clean.countries_with_national_view()[:1])
        path = tmp_path / "sweep.ck"
        key = store_key(world, clean.config)
        with ArtifactStore(key, path=path) as store:
            full = clean.rank_all(self.METRICS, countries, store=store)
        fresh = run_pipeline(world, PipelineConfig())
        with ArtifactStore(key, path=path) as store:
            assert store.persisted == len(full)
            assert fresh.rank_all(
                self.METRICS, countries, store=store
            ) == full


    def test_sweep_key_ignores_request(self, world, clean, tmp_path, monkeypatch):
        """The key holds no request: a reordered or a narrowed sweep
        resumes every unit it shares with the banked one and computes
        nothing, with the output of an uninterrupted run of its own
        request."""
        countries = tuple(clean.countries_with_national_view()[:2])
        requests = (
            (("CCN", "AHN"), countries),
            (("AHN",), countries[:1]),
            (("CCN", "AHN"), countries[::-1]),
        )
        expected = [clean.rank_all(*request) for request in requests]
        path = tmp_path / "sweep.ck"
        key = store_key(world, clean.config)
        with ArtifactStore(key, path=path) as store:
            run_pipeline(world, PipelineConfig()).rank_all(
                ("AHN", "CCN"), countries, store=store
            )
        computed = []
        compute = PipelineResult._compute_ranking
        monkeypatch.setattr(
            PipelineResult, "_compute_ranking",
            lambda self, *unit: computed.append(unit) or compute(self, *unit),
        )
        for request, uninterrupted in zip(requests, expected):
            with ArtifactStore(key, path=path) as store:
                resumed = run_pipeline(world, PipelineConfig()).rank_all(
                    *request, store=store
                )
            assert computed == []
            assert list(resumed.items()) == list(uninterrupted.items())


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
        key = store_key(world, clean.config)

        crashing = run_pipeline(
            world,
            PipelineConfig(faults=FaultPlan(crash_after_units=2)),
        )
        with ArtifactStore(key, path=path) as store:
            with pytest.raises(InjectedCrash):
                crashing.rank_all(self.METRICS, countries, store=store)

        resumed_result = run_pipeline(world, PipelineConfig())
        with ArtifactStore(key, path=path) as store:
            assert store.persisted == 2  # CCG + AHG banked pre-crash
            assert store.lookup(get_spec("CCG"), None) is not None
            resumed = resumed_result.rank_all(
                self.METRICS, countries, store=store
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
        key = store_key(world, clean.config)
        with ArtifactStore(key, path=path) as store:
            clean.rank_all(["CCI", "CCI"], [country], store=store)
        unit_lines = [
            line for line in path.read_text().splitlines()
            if '|ranking:CCI:' in line
        ]
        assert len(unit_lines) == 1
