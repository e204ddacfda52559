import statistics

import pytest

from bench import stats


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert stats.percentile(values, 50) == 50.0
    assert stats.percentile(values, 95) == 95.0
    assert stats.percentile(values, 100) == 100.0
    assert stats.percentile([7.0], 99) == 7.0


@pytest.mark.parametrize("count, expected", [
    (19, None), (20, 50.0), (99, 75.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9),
])
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert stats.supported_percentile(count) == expected
    if expected is not None:
        assert stats.beyond(count, expected) >= stats.MIN_BEYOND


def test_latency_summary_states_count_and_only_supported_tails():
    small = stats.latency_summary([1.0] * 30)
    assert small == {"n": 30, "p50": 1.0}
    samples = [float(v) for v in range(200)]
    summary = stats.latency_summary(samples)
    assert summary["n"] == 200
    assert summary["tail_pct"] == 95.0
    assert summary["tail"] == stats.percentile(samples, 95)


def test_quartiles_and_spread_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, q3)
    assert stats.spread(values) == (q3 - q1) / statistics.median(values)
    assert stats.quartiles([2.0]) == (2.0, 2.0)
