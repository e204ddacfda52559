"""Tests for the §4 downsampling stability machinery."""

import pytest

from repro import GeneratorConfig, generate_world, run_pipeline, small_profiles
from repro.analysis.stability import (
    StabilityCurve,
    StabilityPoint,
    international_stability,
    national_stability,
    stability_curve,
)


@pytest.fixture(scope="module")
def result():
    world = generate_world(
        GeneratorConfig(profiles=small_profiles(), clique_homes=("US", "US", "SE", "JP")),
        seed=6,
    )
    return run_pipeline(world)


class TestCurve:
    @pytest.mark.parametrize("metric, kind, country", [
        pytest.param(metric, kind, country, id=metric)
        for metrics, kind, country in (
            (("CCN", "AHN", "AHN-P"), "national", "NL"),
            (("CCI", "AHI", "AHI-P"), "international", "AU"),
        )
        for metric in metrics
    ])
    def test_full_sample_scores_one(self, result, metric, kind, country):
        """A trial that keeps every VP ranks the full view itself, so
        every trial scores NDCG exactly 1."""
        view = result.view(kind, country)
        total = len(view.vps())
        curve = stability_curve(result, metric, view, sizes=[total], trials=2)
        assert [(p.sample_size, p.mean_ndcg, p.std_ndcg) for p in curve.points] == [
            (total, 1.0, 0.0)
        ]

    def test_ndcg_grows_with_sample_size(self, result):
        curve = international_stability(
            result, "AU", "AHI", sizes=[2, 8, 20], trials=6, seed=1
        )
        rows = curve.as_rows()
        assert rows[0][1] <= rows[-1][1] + 0.05  # monotone-ish with slack

    def test_bounds(self, result):
        curve = international_stability(
            result, "AU", "CCI", sizes=[1, 3, 6], trials=4, seed=2
        )
        for _, mean, std in curve.as_rows():
            assert 0.0 <= mean <= 1.0 + 1e-9
            assert std >= 0.0

    def test_sizes_outside_range_skipped(self, result):
        curve = national_stability(result, "NL", "CCN", sizes=[0, 2, 10**6], trials=2)
        assert [point.sample_size for point in curve.points] == [2]

    def test_trials_validated(self, result):
        view = result.view("national", "NL")
        with pytest.raises(ValueError):
            stability_curve(result, "AHN", view, sizes=[2], trials=0)

    def test_unknown_metric(self, result):
        view = result.view("national", "NL")
        with pytest.raises(ValueError):
            stability_curve(result, "XXN", view, sizes=[2], trials=1)

    def test_deterministic_given_seed(self, result):
        a = international_stability(result, "AU", "AHI", sizes=[4], trials=3, seed=9)
        b = international_stability(result, "AU", "AHI", sizes=[4], trials=3, seed=9)
        assert a.as_rows() == b.as_rows()


class TestMinVps:
    def test_min_vps_threshold(self):
        curve = StabilityCurve(
            metric="AHN", country="NL", total_vps=10,
            points=(
                StabilityPoint(2, 0.5, 0.1, 5),
                StabilityPoint(4, 0.85, 0.05, 5),
                StabilityPoint(6, 0.92, 0.02, 5),
                StabilityPoint(10, 1.0, 0.0, 5),
            ),
        )
        assert curve.min_vps_for(0.9) == 6
        assert curve.min_vps_for(0.8) == 4
        assert curve.min_vps_for(1.01) is None

    def test_min_vps_requires_sustained_quality(self):
        """A dip after an early lucky sample resets the requirement."""
        curve = StabilityCurve(
            metric="CCN", country="NL", total_vps=10,
            points=(
                StabilityPoint(2, 0.95, 0.0, 5),
                StabilityPoint(4, 0.7, 0.0, 5),
                StabilityPoint(6, 0.92, 0.0, 5),
            ),
        )
        assert curve.min_vps_for(0.9) == 6
