"""Retry/timeout/recovery wrapper around the process fan-out.

:func:`resilient_map` is the fault-tolerant counterpart of
``ProcessPoolExecutor.map`` used by the two heavy fan-outs
(:mod:`repro.perf.parallel`). Per chunk it provides:

* a wall-clock **timeout** at the collection point (a hung worker
  fires ``resilience.timeout`` instead of blocking forever);
* **bounded retries** with deterministic exponential backoff (no
  jitter — same plan, same schedule);
* **pool recovery** — a ``BrokenProcessPool`` (killed worker), raised
  while collecting a result or while still submitting chunks, or a
  timeout abandons the poisoned pool, respawns a fresh one, and
  replays only the chunks without results (a chunk never submitted is
  not charged an attempt);
* a **serial fallback** — a chunk that exhausts its pool attempts runs
  in-process (fault injection never applies there), so a finite fault
  plan can never change the final output.

Determinism contract: results are keyed by chunk index and merged in
input order, and workers are pure functions of their payload, so the
output is byte-identical to the fault-free run no matter which
attempt produced each chunk. Everything observable lands in the
``resilience.*`` counters and the ``resilience.map`` span.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence, TypeVar

from repro.obs.trace import NULL_TRACER, AnyTracer
from repro.resilience.faults import FaultPlan, InjectedFault

if TYPE_CHECKING:  # imported lazily to avoid a repro.perf import cycle
    from repro.perf.pool import WorkerPool

P = TypeVar("P")
R = TypeVar("R")


class ChunkFailedError(RuntimeError):
    """A chunk exhausted its attempts and serial fallback was off."""


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounds on how hard the fan-out fights for each chunk."""

    #: pool attempts per chunk before the serial fallback kicks in
    max_attempts: int = 3
    #: per-chunk wall-clock wait at the collection point (None = wait
    #: forever, the pre-resilience behavior)
    timeout_s: float | None = None
    #: deterministic exponential backoff before retry attempts:
    #: ``base * 2**(attempt-1)`` seconds, capped — 0 disables sleeping
    backoff_base_s: float = 0.0
    backoff_cap_s: float = 1.0
    #: run exhausted chunks in-process instead of failing the stage
    serial_fallback: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout_s is not None and self.timeout_s <= 0.0:
            raise ValueError("timeout_s must be positive")
        if self.backoff_base_s < 0.0 or self.backoff_cap_s < 0.0:
            raise ValueError("backoff must be >= 0")

    def backoff_s(self, attempt: int) -> float:
        """Seconds to pause before pool attempt ``attempt`` (0-based);
        the first attempt never waits."""
        if attempt <= 0 or self.backoff_base_s <= 0.0:
            return 0.0
        return min(self.backoff_base_s * 2 ** (attempt - 1), self.backoff_cap_s)


#: the policy every fan-out gets unless the config overrides it
DEFAULT_POLICY = RetryPolicy()


def _run_guarded(
    worker: Callable[[P], R],
    stage: str,
    index: int,
    attempt: int,
    faults: FaultPlan | None,
    payload: P,
) -> R:
    """Worker-side entry: inject this unit's faults, then do the work
    (top-level for pickling)."""
    if faults is not None:
        faults.apply(stage, index, attempt)
    return worker(payload)


def _abandon(pool: ProcessPoolExecutor) -> None:
    """Tear a (possibly poisoned) pool down without waiting on hung
    workers: terminate its processes, then shut down non-blocking."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        process.terminate()
    pool.shutdown(wait=False, cancel_futures=True)


def resilient_map(
    stage: str,
    worker: Callable[[P], R],
    payloads: Sequence[P],
    workers: int,
    policy: RetryPolicy | None = None,
    tracer: AnyTracer = NULL_TRACER,
    faults: FaultPlan | None = None,
    pool: "WorkerPool | None" = None,
) -> list[R]:
    """Map ``worker`` over ``payloads`` on a process pool, riding out
    worker deaths, hangs, and chunk exceptions.

    Returns results in payload order. Raises :class:`ChunkFailedError`
    (or the chunk's own exception) only when a chunk exhausts
    ``policy.max_attempts`` and ``policy.serial_fallback`` is off.

    ``pool`` (a :class:`repro.perf.pool.WorkerPool`) lends a persistent
    executor instead of creating one per call. The failure contract is
    identical — a poisoned executor is handed back through
    ``pool.invalidate()`` (terminated, never reused) and the pool
    serves a fresh one for the replay; the pool itself stays usable
    after this call returns.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if policy is None:
        policy = DEFAULT_POLICY
    metrics = tracer.metrics
    total = len(payloads)
    results: dict[int, R] = {}
    attempts = [0] * total
    retries = timeouts = respawns = fallbacks = 0
    with tracer.span(
        "resilience.map", stage=stage, chunks=total, workers=workers,
    ) as span:
        if pool is not None:
            executor = pool.executor()
        else:
            executor = ProcessPoolExecutor(
                max_workers=min(workers, max(total, 1))
            )
        try:
            pending = list(range(total))
            while pending:
                eligible = [
                    i for i in pending if attempts[i] < policy.max_attempts
                ]
                for index in pending:
                    if index in results or attempts[index] < policy.max_attempts:
                        continue
                    # out of pool attempts: finish the chunk in-process
                    # (never fault-injected), or give up loudly
                    if not policy.serial_fallback:
                        raise ChunkFailedError(
                            f"stage {stage!r} chunk {index} failed after "
                            f"{attempts[index]} attempts"
                        )
                    fallbacks += 1
                    metrics.counter("resilience.serial_fallback").inc()
                    results[index] = worker(payloads[index])
                futures: dict[int, Future[R]] = {}
                broken = False
                for index in eligible:
                    pause = policy.backoff_s(attempts[index])
                    if pause > 0.0:
                        time.sleep(pause)
                    try:
                        futures[index] = executor.submit(
                            _run_guarded, worker, stage, index,
                            attempts[index], faults, payloads[index],
                        )
                    except BrokenProcessPool:
                        # a worker died while chunks were still being
                        # submitted: stop submitting and respawn below;
                        # the unsubmitted chunks stay pending, with no
                        # attempt charged — unless nothing got through,
                        # so a pool that breaks at every first submit
                        # still ends in the serial fallback
                        metrics.counter("resilience.pool_break").inc()
                        broken = True
                        if not futures:
                            attempts[index] += 1
                        break
                    if attempts[index] > 0:
                        retries += 1
                        metrics.counter("resilience.retry").inc()
                    attempts[index] += 1
                for index in sorted(futures):
                    try:
                        results[index] = futures[index].result(
                            timeout=policy.timeout_s
                        )
                    except TimeoutError:
                        # the worker is hung; the pool slot is poisoned
                        timeouts += 1
                        metrics.counter("resilience.timeout").inc()
                        broken = True
                    except BrokenProcessPool:
                        # a worker died (kill/OOM/segfault); every
                        # outstanding future on this pool is lost
                        metrics.counter("resilience.pool_break").inc()
                        broken = True
                    except InjectedFault:
                        metrics.counter("resilience.injected_fault").inc()
                    except Exception:
                        # a real chunk error: retried like any other
                        # failure, re-raised once retries cannot help
                        if (
                            attempts[index] >= policy.max_attempts
                            and not policy.serial_fallback
                        ):
                            raise
                        metrics.counter("resilience.chunk_error").inc()
                if broken:
                    respawns += 1
                    metrics.counter("resilience.pool_respawn").inc()
                    if pool is not None:
                        pool.invalidate()
                        executor = pool.executor()
                    else:
                        _abandon(executor)
                        executor = ProcessPoolExecutor(
                            max_workers=min(workers, max(total, 1))
                        )
                pending = [i for i in range(total) if i not in results]
        finally:
            if pool is None:
                _abandon(executor)
        span.set(
            retries=retries, timeouts=timeouts,
            respawns=respawns, fallbacks=fallbacks,
        )
    return [results[index] for index in range(total)]
