from bench.spans import Recorder


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    rec = Recorder(clock)
    with rec.span("root") as root:
        clock.now += 1.0
        with rec.span("a"):
            clock.now += 2.0
            with rec.span("b"):
                clock.now += 3.0
            clock.now += 0.5
        with rec.span("b"):
            clock.now += 1.5
        clock.now += 0.25
    totals = rec.self_times()
    assert totals == {"b": 4.5, "a": 2.5, "root": 1.25}
    assert root.dur == 8.25
    assert rec.coverage(root) == 7.0 / 8.25
    assert sum(totals.values()) == root.dur


def test_time_inside_a_drained_iterator_is_a_child_of_its_consumer():
    clock = FakeClock()
    rec = Recorder(clock)

    def produce():
        for item in range(3):
            clock.now += 1.0
            yield item

    with rec.span("consumer") as consumer:
        for _ in rec.timed(produce(), "producer"):
            clock.now += 10.0
    assert rec.self_times() == {"producer": 3.0, "consumer": 30.0}
    assert rec.counts == {"producer": 3}
    assert consumer.child == 3.0


def test_abandoned_iterator_is_still_credited():
    clock = FakeClock()
    rec = Recorder(clock)
    with rec.span("consumer"):
        items = rec.timed(iter(range(10)), "producer")
        next(items)
        items.close()
    assert rec.counts == {"producer": 1}
    assert "producer" in rec.self_times()
