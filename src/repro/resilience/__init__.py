"""Fault tolerance for the pipeline: injection, checkpoint, quarantine.

The layer has three pieces, all deterministic by construction:

* :class:`FaultPlan` — seeded, replayable fault injection (dump-line
  corruption and mid-sweep crashes), wired behind
  ``PipelineConfig(faults=...)`` and ``make faults``;
* :class:`Checkpoint` — content-keyed, append-only persistence of
  completed sweep units, the engine behind
  ``repro-rank sweep --resume``;
* :class:`Quarantine` — the malformed-line sink behind
  ``load_rib(strict=False)``.

Failure-equivalence invariant (DESIGN.md §6): for any finite fault
plan, the surviving output — resumed sweeps, quarantine-filtered
ingestion — is byte-identical to what the fault-free run produces over
the same surviving input.
"""

from repro.resilience.checkpoint import (
    Checkpoint,
    CheckpointError,
    config_knobs,
    ranking_from_payload,
    ranking_to_payload,
    sweep_key,
)
from repro.resilience.faults import FaultPlan, InjectedCrash
from repro.resilience.quarantine import Quarantine, QuarantinedLine

__all__ = [
    "Checkpoint",
    "CheckpointError",
    "FaultPlan",
    "InjectedCrash",
    "Quarantine",
    "QuarantinedLine",
    "config_knobs",
    "ranking_from_payload",
    "ranking_to_payload",
    "sweep_key",
]
