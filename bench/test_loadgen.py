import pytest

from bench import loadgen


class FakeTime:
    """A clock that only moves when the generator sleeps or a request
    is served; ``oversleep`` models a late wake-up."""

    def __init__(self, oversleep: float = 0.0) -> None:
        self.now = 100.0
        self.oversleep = oversleep

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds + self.oversleep


def run(fake, service_times, rate):
    times = iter(service_times)

    def send(lane, path):
        fake.now += next(times)
        return True

    return loadgen.open_loop(
        send, [f"/r{i}" for i in range(len(service_times))], rate,
        connections=1, clock=fake.clock, sleep=fake.sleep,
    )


def test_latency_is_timed_from_the_due_time():
    # 10 rps; the second request takes 0.25 s, so the next two fall
    # due while the connection is still busy and inherit the stall
    result = run(FakeTime(), [0.01, 0.25, 0.01, 0.01], rate=10.0)
    assert result.latencies_ms == pytest.approx([10.0, 250.0, 160.0, 70.0])
    assert [due for due, _ in result.windows] == pytest.approx(
        [100.05, 100.15, 100.25, 100.35]
    )


def test_lateness_counts_only_the_generators_own_delay():
    # waiting for a busy connection is latency, not lateness
    busy = run(FakeTime(), [0.01, 0.25, 0.01, 0.01], rate=10.0)
    assert busy.lateness_ms == pytest.approx([0.0] * 4)
    assert busy.valid
    # waking up 7 ms late is the generator's fault
    late = run(FakeTime(oversleep=0.007), [0.001] * 4, rate=10.0)
    assert late.lateness_ms == pytest.approx([7.0] * 4)
    assert not late.valid
    assert not late.passed


def test_a_connection_too_far_behind_abandons_the_rest():
    result = run(FakeTime(), [2.0] + [0.001] * 9, rate=100.0)
    assert result.sent == 1
    assert result.abandoned == 9
    assert not result.passed


def test_passing_rung_needs_a_low_p95_and_a_drained_backlog():
    fast = run(FakeTime(), [0.002] * 40, rate=20.0)
    assert fast.passed
    assert fast.drain_s == pytest.approx(0.002)
    slow = run(FakeTime(), [0.030] * 40, rate=20.0)
    assert not slow.passed
