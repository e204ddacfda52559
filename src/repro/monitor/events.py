"""The watch event stream: typed, schema-validated, deterministic.

A watch run is externally observable as a flat JSONL stream of four
event types, emitted in processing order:

``snapshot``
    one per world snapshot entering the engine, before any of its
    rankings — carries the record count and the resolved monitoring
    grid size;
``ranking``
    one per (snapshot, metric, country) cell — carries the ranking
    size and the top-k entries ``[rank, asn, share]``;
``drift``
    one per cell per consecutive snapshot pair — Kendall-τ and NDCG
    over the full rankings plus the top-k churn (entered / exited /
    rank shifts);
``alert``
    emitted when a drift crosses the configured thresholds — carries
    the severity and the human-readable reasons.

Every event has a monotonically increasing ``seq`` and a 12-hex-char
``id`` derived from the event's identifying content (never from a
clock or RNG), so the stream is **byte-identical** for a fixed
snapshot set and config — reruns and checkpoint-resumed runs both
reproduce it exactly. Floats are rounded
to 6 places before serialization so the bytes never depend on
intermediate summation noise in renderers.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Iterable

from repro.core.ranking import Ranking

if TYPE_CHECKING:
    from repro.monitor.drift import DriftReport

#: the watch event vocabulary, in emission-precedence order
EVENT_TYPES = ("snapshot", "ranking", "drift", "alert")

#: alert severities, mildest first
SEVERITIES = ("notice", "page")


def event_id(seq: int, kind: str, *parts: object) -> str:
    """A deterministic 12-hex-char id for one event.

    Hashes the sequence number, the kind, and the identifying parts —
    no clocks, no RNG — so the same stream position in the same run
    always gets the same id (the resume contract depends on this).
    """
    material = "|".join([str(seq), kind, *(str(part) for part in parts)])
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:12]


def _round(value: float) -> float:
    return round(float(value), 6)


# -- event builders -----------------------------------------------------------


def snapshot_event(
    seq: int, index: int, label: str, source: str, records: int, pairs: int
) -> dict:
    """The event announcing one snapshot entering the engine."""
    return {
        "type": "snapshot",
        "id": event_id(seq, "snapshot", label, index),
        "seq": seq,
        "index": index,
        "snapshot": label,
        "source": source,
        "records": records,
        "pairs": pairs,
    }


def ranking_event(
    seq: int, label: str, ranking: Ranking, metric: str,
    country: str | None, top: int,
) -> dict:
    """The event recording one computed (or resumed) ranking."""
    return {
        "type": "ranking",
        "id": event_id(seq, "ranking", label, metric, country),
        "seq": seq,
        "snapshot": label,
        "metric": metric,
        "country": country,
        "size": len(ranking.entries),
        "top": [
            [
                entry.rank,
                entry.asn,
                None if entry.share is None else _round(entry.share),
            ]
            for entry in ranking.top(top)
        ],
    }


def drift_event(seq: int, report: "DriftReport") -> dict:
    """The event recording one consecutive-snapshot drift measurement."""
    return {
        "type": "drift",
        "id": event_id(
            seq, "drift", report.metric, report.country,
            report.before_label, report.after_label,
        ),
        "seq": seq,
        "metric": report.metric,
        "country": report.country,
        "before": report.before_label,
        "after": report.after_label,
        "tau": _round(report.tau),
        "ndcg": _round(report.ndcg),
        "top": report.churn.k,
        "entered": list(report.churn.entered),
        "exited": list(report.churn.exited),
        "shifts": [
            [shift.asn, shift.before_rank, shift.after_rank]
            for shift in report.churn.shifts
        ],
    }


def alert_event(
    seq: int, report: "DriftReport", severity: str, reasons: tuple[str, ...]
) -> dict:
    """The event recording one threshold crossing."""
    return {
        "type": "alert",
        "id": event_id(
            seq, "alert", report.metric, report.country,
            report.before_label, report.after_label,
        ),
        "seq": seq,
        "metric": report.metric,
        "country": report.country,
        "before": report.before_label,
        "after": report.after_label,
        "severity": severity,
        "tau": _round(report.tau),
        "ndcg": _round(report.ndcg),
        "reasons": list(reasons),
    }


# -- serialization ------------------------------------------------------------


def events_to_jsonl(events: Iterable[dict]) -> str:
    """The event stream as JSON Lines text (sorted keys: the byte-
    identity contract covers this exact serialization)."""
    return "\n".join(json.dumps(event, sort_keys=True) for event in events)
