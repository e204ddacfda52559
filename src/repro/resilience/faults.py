"""Deterministic fault injection for the pipeline's failure paths.

A :class:`FaultPlan` decides, as a pure function of its seed, which
ingested dump lines are corrupted (the quarantine path) and after how
many newly computed sweep units the sweep crashes (the
checkpoint/resume path). Two runs with the same plan inject exactly
the same faults, so every failure scenario the test suite (and ``make
faults``) exercises is replayable.

Nothing here reads a clock or an unseeded RNG: choice is driven by a
CRC-based integer mix of the plan's seed and the line's position.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass


class InjectedCrash(RuntimeError):
    """An injected mid-sweep process crash (checkpoint/resume tests)."""


def _mix(seed: int, stage: str, index: int) -> int:
    """Deterministic 32-bit mix of a unit's coordinates (the trailing
    ``:0`` keeps every seed's choices what earlier plans chose)."""
    value = zlib.crc32(f"{seed}:{stage}:{index}:0".encode())
    value ^= value >> 16
    value = (value * 2654435761) & 0xFFFFFFFF
    return value ^ (value >> 13)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, replayable set of faults to inject.

    The default plan injects nothing; tests and ``make faults`` build
    plans that corrupt dump lines or crash a sweep.
    """

    seed: int = 0
    #: probability an ingested dump line is corrupted (quarantine path)
    corrupt_rate: float = 0.0
    #: raise InjectedCrash after this many newly-computed sweep units
    crash_after_units: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.corrupt_rate <= 1.0:
            raise ValueError(f"corrupt_rate out of range: {self.corrupt_rate}")
        if self.crash_after_units is not None and self.crash_after_units < 1:
            raise ValueError("crash_after_units must be >= 1")

    # -- ingestion-side faults ------------------------------------------------

    def corrupts_line(self, line_no: int) -> bool:
        """Whether the ``line_no``-th dump line is corrupted."""
        if self.corrupt_rate <= 0.0:
            return False
        return _mix(self.seed, "ingest", line_no) / 2**32 < self.corrupt_rate

    def corrupt(self, line: str) -> str:
        """Deterministically mangle one dump line (truncate mid-token
        and splice in garbage — reliably invalid JSON)."""
        cut = max(1, len(line) // 2)
        return line[:cut] + '#!corrupt{"'

    # -- sweep crash ----------------------------------------------------------

    def crashes_after(self, computed_units: int) -> bool:
        """Whether the sweep crashes once ``computed_units`` units have
        been newly computed (checkpoint/resume scenario)."""
        return (
            self.crash_after_units is not None
            and computed_units >= self.crash_after_units
        )
