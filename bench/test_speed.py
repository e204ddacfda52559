import pytest

from bench import speed


def probes(times, took):
    return [(t, took) for t in times]


def test_an_interval_is_scaled_by_the_median_probe_inside_it():
    samples = probes([0.0, 0.5, 0.85], 9e-4) + probes(
        [1.0 + i / 10 for i in range(11)], 2 * speed.REF_PROBE_S
    ) + probes([2.15, 3.0], 9e-4)
    # the probes at 0.85 and 2.15 s lie just outside the pad
    assert speed.scale(samples, 1.0, 2.0) == pytest.approx(0.5)
    samples[5] = (samples[5][0], 50 * speed.REF_PROBE_S)  # one hiccup moves nothing
    assert speed.scale(samples, 1.0, 2.0) == pytest.approx(0.5)


def test_the_pad_widens_until_enough_probes_describe_a_short_interval():
    samples = probes([0.0, 0.1, 0.2, 0.3], speed.REF_PROBE_S) + probes(
        [1.0, 1.1, 1.2, 1.3, 1.4, 1.5], 4 * speed.REF_PROBE_S
    )
    assert speed.scale(samples, 0.3, 0.31) == pytest.approx(1.0)
    assert speed.scale(samples, 0.9, 0.91) == pytest.approx(0.25)
    assert speed.scale(samples[:2], 5.0, 5.1) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        speed.scale([], 0.0, 1.0)


def test_the_sampler_log_is_read_one_complete_line_at_a_time(tmp_path):
    log = tmp_path / "speed.log"
    log.write_text("1.0 0.00025\n2.0 0.0005\n3.0 0.00")
    reader = speed.SpeedLog(log)
    assert reader.samples() == [(1.0, 0.00025), (2.0, 0.0005)]
    with open(log, "a") as handle:
        handle.write("1\n")
    assert reader.samples()[-1] == (3.0, 0.001)
    assert reader.seconds(1.0, 3.0) == pytest.approx(2.0 * speed.REF_PROBE_S / 0.0005)
