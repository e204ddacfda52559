"""Fault tolerance for the pipeline: injection, checkpoint, quarantine.

The layer has three pieces, all deterministic by construction:

* :class:`FaultPlan` — seeded, replayable fault injection (dump-line
  corruption and mid-sweep crashes), wired behind
  ``PipelineConfig(faults=...)`` and ``make faults``;
* :class:`Checkpoint` files and the :class:`ArtifactStore` over them —
  every persisted ranking (sweep, watch, serve) banked under the one
  content key :func:`store_key`;
* :class:`Quarantine` — the malformed-line sink behind
  ``load_rib(strict=False)``.

Failure-equivalence invariant (DESIGN.md §6): for any finite fault
plan, the surviving output — resumed sweeps, quarantine-filtered
ingestion — is byte-identical to what the fault-free run produces over
the same surviving input.
"""

from repro.resilience.checkpoint import (
    SEMANTIC_KNOBS,
    ArtifactStore,
    Checkpoint,
    CheckpointError,
    ranking_from_payload,
    ranking_to_payload,
    store_key,
    unit_name,
)
from repro.resilience.faults import FaultPlan, InjectedCrash
from repro.resilience.quarantine import Quarantine, QuarantinedLine

__all__ = [
    "ArtifactStore",
    "Checkpoint",
    "CheckpointError",
    "FaultPlan",
    "InjectedCrash",
    "Quarantine",
    "QuarantinedLine",
    "SEMANTIC_KNOBS",
    "ranking_from_payload",
    "ranking_to_payload",
    "store_key",
    "unit_name",
]
