"""Recovery for persisted rankings: checkpoint files and the one store.

:class:`Checkpoint` files and the :class:`ArtifactStore` over them hold
every persisted ranking (sweep, watch, serve), banked under the one
content key :func:`store_key`. A sweep that stops part-way resumes from
its banked units, and its output is byte-identical to an uninterrupted
sweep's (DESIGN.md §6).
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

__all__ = [
    "ArtifactStore",
    "Checkpoint",
    "CheckpointError",
    "SEMANTIC_KNOBS",
    "ranking_from_payload",
    "ranking_to_payload",
    "store_key",
    "unit_name",
]
