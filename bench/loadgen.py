"""Open-loop request generator: requests go out on a fixed schedule,
whether or not earlier ones have come back.

Each request is timed from the moment it was *due*, so a stall on one
request shows up in the latency of every request queued behind it.
Requests are dealt round-robin over a fixed set of keep-alive
connections, one thread each. A request's *lateness* is how long after
it could have gone out (due, and its connection free) the generator
actually sent it: that is the generator's own error, and a rung whose
lateness is too high measured the generator, not the server.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from bench import stats

#: a rung whose generator lateness p99 exceeds this is invalid
MAX_LATENESS_MS = 5.0
#: latency limit on the rung's p95
P95_LIMIT_MS = 25.0
#: the backlog must drain within this long after the last due time;
#: a connection that falls further behind than this gives up
DRAIN_LIMIT_S = 1.0
#: requests per rung, so that p95 has ten samples beyond it
RUNG_REQUESTS = 200


@dataclass
class RungResult:
    rate: float
    latencies_ms: list[float] = field(default_factory=list)
    lateness_ms: list[float] = field(default_factory=list)
    failed: int = 0
    #: requests never sent because their connection fell behind
    abandoned: int = 0
    #: last completion minus last due time
    drain_s: float = 0.0
    #: (due, done) of each request in ``latencies_ms``, on the
    #: generator's clock
    windows: list[tuple[float, float]] = field(default_factory=list)

    @property
    def sent(self) -> int:
        return len(self.latencies_ms)

    @property
    def lateness_p99_ms(self) -> float:
        return stats.percentile(self.lateness_ms, 99.0) if self.lateness_ms else 0.0

    @property
    def valid(self) -> bool:
        return self.lateness_p99_ms <= MAX_LATENESS_MS

    @property
    def passed(self) -> bool:
        return bool(
            self.latencies_ms and self.valid
            and not self.failed and not self.abandoned
            and self.drain_s <= DRAIN_LIMIT_S
            and stats.percentile(self.latencies_ms, 95.0) <= P95_LIMIT_MS
        )

    def summary(self) -> dict:
        out = {
            "rate": self.rate, "sent": self.sent, "failed": self.failed,
            "abandoned": self.abandoned, "drain_s": self.drain_s,
            "lateness_p99_ms": self.lateness_p99_ms, "valid": self.valid,
            "passed": self.passed,
        }
        if self.latencies_ms:
            out["latency_ms"] = stats.latency_summary(self.latencies_ms)
        return out


def open_loop(
    send: Callable[[int, str], bool],
    requests: list[str],
    rate: float,
    connections: int = 2,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> RungResult:
    """Send ``requests[i]`` at ``start + i / rate`` on connection
    ``i % connections``. ``send(connection, path)`` performs one request
    and returns whether its answer was correct."""
    start = clock() + 0.05
    lanes = [_Lane() for _ in range(connections)]

    def drive(lane_index: int) -> None:
        lane = lanes[lane_index]
        free = clock()
        for index in range(lane_index, len(requests), connections):
            due = start + index / rate
            now = clock()
            if now - due > DRAIN_LIMIT_S:
                lane.abandoned = len(range(index, len(requests), connections))
                return
            if due > now:
                sleep(due - now)
            sent = clock()
            ok = send(lane_index, requests[index])
            done = clock()
            lane.lateness.append(sent - max(due, free))
            lane.windows.append((due, done))
            lane.failed += not ok
            lane.last_done = done
            free = done

    if connections == 1:
        drive(0)
    else:
        threads = [
            threading.Thread(target=drive, args=(index,), daemon=True)
            for index in range(connections)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    result = RungResult(rate)
    for lane in lanes:
        result.windows += lane.windows
        result.latencies_ms += [(done - due) * 1000.0 for due, done in lane.windows]
        result.lateness_ms += [s * 1000.0 for s in lane.lateness]
        result.failed += lane.failed
        result.abandoned += lane.abandoned
    last_due = start + (len(requests) - 1) / rate
    result.drain_s = max((lane.last_done for lane in lanes), default=last_due) - last_due
    return result


@dataclass
class _Lane:
    windows: list[tuple[float, float]] = field(default_factory=list)
    lateness: list[float] = field(default_factory=list)
    failed: int = 0
    abandoned: int = 0
    last_done: float = 0.0
