"""Temporal monitoring over snapshot streams (``repro-rank watch``).

The monitor package turns the repro's one-off two-snapshot comparison
(:mod:`repro.analysis.temporal`) into a streaming engine: resolve an
ordered list of snapshots (:mod:`.snapshots`), compute the configured
metric/country grid on each (:mod:`.engine`), measure drift between
consecutive snapshots (:mod:`.drift`), and emit a deterministic,
schema-validated event stream (:mod:`.events`) through the obs layer.
"""

from repro.monitor.drift import (
    DriftReport,
    RankShift,
    TopChurn,
    alert_reasons,
    full_tau,
    measure_drift,
    top_churn,
)
from repro.monitor.engine import (
    WatchConfig,
    WatchRun,
    render_watch,
    resolve_specs,
    watch,
)
from repro.monitor.events import (
    EVENT_TYPES,
    event_id,
    events_to_jsonl,
)
from repro.monitor.snapshots import SnapshotRef, WatchError, resolve_snapshots

__all__ = [
    "DriftReport",
    "EVENT_TYPES",
    "RankShift",
    "SnapshotRef",
    "TopChurn",
    "WatchConfig",
    "WatchError",
    "WatchRun",
    "alert_reasons",
    "event_id",
    "events_to_jsonl",
    "full_tau",
    "measure_drift",
    "render_watch",
    "resolve_snapshots",
    "resolve_specs",
    "top_churn",
    "watch",
]
