"""A yardstick for the speed of the CPU the measured work runs on.

On a shared host a core's speed swings by a third or more, for seconds
or for minutes at a time, and the process's CPU time swings with its
wall time (the slowdown is not steal time). No statistic of wall times
alone tells a slower program from a slower core. So the benchmark
pins itself, and with it every process it starts, to one CPU, and a
sampler process on that CPU times a fixed pure-Python probe every
``PERIOD_S`` seconds. A timed
interval is then reported at *reference speed*: its wall time times
``REF_PROBE_S`` over the median probe time logged during it. A program
change moves the interval and not the probe, so it still shows in full.

``python -m bench.speed LOG PARENT_PID`` is the sampler; it exits when
its parent is gone or after ``MAX_LIFETIME_S``.
"""

from __future__ import annotations

import bisect
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

PROBE_LOOPS = 4_000
PERIOD_S = 0.02
#: the probe's duration on the calibration host running at full speed;
#: it only sets the scale of every reported time
REF_PROBE_S = 2.5e-4
#: probes this close outside an interval still describe it
PAD_S = 0.1
MIN_PROBES = 5
MAX_LIFETIME_S = 1800.0


def probe() -> float:
    """Seconds one fixed piece of pure-Python work took."""
    started = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - started


def measured_cpu() -> int | None:
    """The CPU measured processes are pinned to (the highest one this
    process may use), or ``None`` where affinity is not supported."""
    if not hasattr(os, "sched_getaffinity"):
        return None
    return max(os.sched_getaffinity(0))


def pin(cpu: int | None) -> None:
    """Restrict this process, and the threads and processes it starts
    from now on, to ``cpu``."""
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


def unpin() -> None:
    """Let this process use every CPU again (for fan-out measurements)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, range(os.cpu_count() or 1))


def scale(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """``REF_PROBE_S`` over the median probe time logged within
    ``PAD_S`` of [``start``, ``end``]; the pad doubles until at least
    ``MIN_PROBES`` probes (or every probe logged) fall inside.
    ``samples`` are in time order."""
    if not samples:
        raise ValueError("the speed sampler logged no probes")
    pad = PAD_S
    while True:
        first = bisect.bisect_left(samples, (start - pad,))
        last = bisect.bisect_right(samples, (end + pad, math.inf))
        if last - first >= min(MIN_PROBES, len(samples)):
            return REF_PROBE_S / statistics.median(
                took for _, took in samples[first:last]
            )
        pad *= 2


class SpeedLog:
    """The probes a sampler has logged to ``log``, read as it grows."""

    def __init__(self, log: Path) -> None:
        self.log = log
        self._samples: list[tuple[float, float]] = []
        self._read = 0

    def samples(self) -> list[tuple[float, float]]:
        """Every (time, probe seconds) pair logged so far."""
        with open(self.log, "rb") as handle:
            handle.seek(self._read)
            chunk = handle.read()
        complete = chunk.rfind(b"\n") + 1
        self._read += complete
        for line in chunk[:complete].decode().splitlines():
            at, took = line.split()
            self._samples.append((float(at), float(took)))
        return self._samples

    def seconds(self, start: float, end: float) -> float:
        """Wall time of [``start``, ``end``] at reference speed."""
        return (end - start) * scale(self.samples(), start, end)


class Sampler(SpeedLog):
    """The sampler process of one benchmark run, and its log. It runs on
    the CPU its parent is pinned to."""

    def __init__(self, log: Path, env: dict[str, str], cwd: Path) -> None:
        super().__init__(log)
        log.write_text("")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "bench.speed", str(log), str(os.getpid())],
            env=env, cwd=cwd,
        )

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def main(argv: list[str]) -> int:
    log, parent = argv
    deadline = time.monotonic() + MAX_LIFETIME_S
    with open(log, "a", encoding="ascii") as out:
        while os.getppid() == int(parent) and time.monotonic() < deadline:
            took = probe()
            out.write(f"{time.monotonic():.6f} {took:.9f}\n")
            out.flush()
            time.sleep(PERIOD_S)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
