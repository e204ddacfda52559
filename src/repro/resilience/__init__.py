"""Fault tolerance for the pipeline: injection, retry, checkpoint,
quarantine.

The layer has four pieces, all deterministic by construction:

* :class:`FaultPlan` — seeded, replayable fault injection (worker
  kills, chunk stalls, dump-line corruption, mid-sweep crashes), wired
  behind ``PipelineConfig(faults=...)`` and ``make faults``;
* :class:`RetryPolicy` / :func:`resilient_map` — per-chunk timeouts,
  bounded deterministic retries, ``BrokenProcessPool`` recovery, and a
  serial fallback wrapped around the process fan-out
  (:mod:`repro.perf.parallel`);
* :class:`Checkpoint` — content-keyed, append-only persistence of
  completed sweep units, the engine behind
  ``repro-rank sweep --resume``;
* :class:`Quarantine` — the malformed-line sink behind
  ``load_rib(strict=False)``.

Failure-equivalence invariant (DESIGN.md §6): for any finite fault
plan, the surviving output — retried chunks, resumed sweeps,
quarantine-filtered ingestion — is byte-identical to what the
fault-free run produces over the same surviving input.
"""

from repro.resilience.checkpoint import (
    Checkpoint,
    CheckpointError,
    config_knobs,
    ranking_from_payload,
    ranking_to_payload,
    sweep_key,
)
from repro.resilience.faults import FaultPlan, InjectedCrash, InjectedFault
from repro.resilience.quarantine import Quarantine, QuarantinedLine
from repro.resilience.retry import (
    DEFAULT_POLICY,
    ChunkFailedError,
    RetryPolicy,
    resilient_map,
)

__all__ = [
    "Checkpoint",
    "CheckpointError",
    "ChunkFailedError",
    "DEFAULT_POLICY",
    "FaultPlan",
    "InjectedCrash",
    "InjectedFault",
    "Quarantine",
    "QuarantinedLine",
    "RetryPolicy",
    "config_knobs",
    "ranking_from_payload",
    "ranking_to_payload",
    "resilient_map",
    "sweep_key",
]
