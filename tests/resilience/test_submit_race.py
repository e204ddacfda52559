"""A worker that dies while ``resilient_map`` is still submitting
chunks breaks the pool at ``submit`` instead of at ``result()``. That
must be recovered the same way: stop submitting, respawn once, and
replay the unsubmitted chunks without charging them an attempt.

The executors here are deterministic stubs that run each call inline;
the first one finds its pool broken on its second ``submit``.
"""

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.obs.trace import Tracer
from repro.resilience import RetryPolicy, resilient_map
from repro.resilience import retry as retry_module

PAYLOADS = list(range(1, 8))


def square(value):
    return value * value


class StubExecutor:
    """Runs each submitted call inline; ``breaks_at`` names the
    ``submit`` call (1-based) that raises ``BrokenProcessPool``."""

    created: list["StubExecutor"] = []

    def __init__(self, max_workers=None, breaks_at=None):
        self.breaks_at = breaks_at
        self.submits = 0
        StubExecutor.created.append(self)

    def submit(self, fn, *args):
        self.submits += 1
        if self.submits == self.breaks_at:
            raise BrokenProcessPool("a worker died during submit")
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class StubPool:
    """The ``WorkerPool`` surface ``resilient_map`` uses."""

    def __init__(self):
        self.current = StubExecutor(breaks_at=2)
        self.invalidated = 0

    def executor(self):
        return self.current

    def invalidate(self):
        self.invalidated += 1
        self.current = StubExecutor()


@pytest.fixture(autouse=True)
def fresh_registry():
    StubExecutor.created = []


def run(pool):
    tracer = Tracer()
    # one pool attempt per chunk: a chunk charged for the failed submit
    # would fall back to serial, which the counters would show
    results = resilient_map(
        "stage", square, PAYLOADS, workers=2,
        policy=RetryPolicy(max_attempts=1), tracer=tracer, pool=pool,
    )
    return results, tracer.metrics.counters()


def test_broken_submit_on_a_lent_pool_respawns_once():
    pool = StubPool()
    results, counters = run(pool)
    assert results == [square(value) for value in PAYLOADS]
    assert pool.invalidated == 1
    assert counters["resilience.pool_respawn"] == 1
    assert counters.get("resilience.serial_fallback", 0) == 0
    first, second = StubExecutor.created
    assert first.submits == 2  # one chunk submitted, then the break
    assert second.submits == len(PAYLOADS) - 1


def test_broken_submit_on_an_owned_pool_respawns_once(monkeypatch):
    def breaking_on_second_submit(max_workers=None):
        first = not StubExecutor.created
        return StubExecutor(max_workers, breaks_at=2 if first else None)

    monkeypatch.setattr(
        retry_module, "ProcessPoolExecutor", breaking_on_second_submit
    )
    results, counters = run(None)
    assert results == [square(value) for value in PAYLOADS]
    assert counters["resilience.pool_respawn"] == 1
    assert counters.get("resilience.serial_fallback", 0) == 0
    assert [executor.submits for executor in StubExecutor.created] == [
        2, len(PAYLOADS) - 1,
    ]


def test_pool_broken_at_every_first_submit_still_terminates():
    """A pool that is already broken when each round starts gets
    nothing through; the chunk that hit the break is charged, so every
    chunk ends in the serial fallback instead of respawning forever."""

    class AlwaysBroken(StubPool):
        def __init__(self):
            self.current = StubExecutor(breaks_at=1)
            self.invalidated = 0

        def invalidate(self):
            self.invalidated += 1
            self.current = StubExecutor(breaks_at=1)

    results, counters = run(AlwaysBroken())
    assert results == [square(value) for value in PAYLOADS]
    assert counters["resilience.serial_fallback"] == len(PAYLOADS)
    assert counters["resilience.pool_respawn"] == len(PAYLOADS)
