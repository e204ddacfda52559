"""The watch event stream's schema check, run by the monitor and CLI
tests over emitted streams (the watch counterpart of
:func:`repro.obs.export.validate_events`)."""

from __future__ import annotations

import json
import re
from typing import Iterable

from repro.monitor.events import EVENT_TYPES, SEVERITIES

_ID_RE = re.compile(r"^[0-9a-f]{12}$")


def validate_watch_events(events: Iterable[dict]) -> list[str]:
    """Schema-check a watch event stream; returns problems (empty = valid).

    Rules: every event has a known ``type``, a well-formed unique
    ``id``, and a ``seq`` strictly increasing from 0; ``ranking`` /
    ``drift`` / ``alert`` events reference snapshot labels already
    announced by an earlier ``snapshot`` event; ``tau`` lies in
    [-1, 1]; ``ndcg`` is non-negative; ``ranking.top`` ranks ascend;
    alerts carry at least one reason and a known severity.
    """
    problems: list[str] = []
    seen_ids: set[str] = set()
    seen_labels: set[str] = set()
    expected_seq = 0
    for index, event in enumerate(events):
        where = f"event {index}"
        kind = event.get("type")
        if kind not in EVENT_TYPES:
            problems.append(f"{where}: unknown type {kind!r}")
            continue
        eid = event.get("id")
        if not isinstance(eid, str) or _ID_RE.fullmatch(eid) is None:
            problems.append(f"{where}: malformed id {eid!r}")
        elif eid in seen_ids:
            problems.append(f"{where}: duplicate id {eid}")
        else:
            seen_ids.add(eid)
        seq = event.get("seq")
        if seq != expected_seq:
            problems.append(f"{where}: seq {seq!r} (expected {expected_seq})")
        expected_seq += 1
        if kind == "snapshot":
            label = event.get("snapshot")
            if not isinstance(label, str) or not label:
                problems.append(f"{where}: missing snapshot label")
            else:
                seen_labels.add(label)
            for field in ("records", "pairs", "index"):
                value = event.get(field)
                if not isinstance(value, int) or value < 0:
                    problems.append(f"{where}: bad {field} {value!r}")
            continue
        labels = (
            [event.get("snapshot")] if kind == "ranking"
            else [event.get("before"), event.get("after")]
        )
        for label in labels:
            if label not in seen_labels:
                problems.append(
                    f"{where}: references snapshot {label!r} before its "
                    "snapshot event"
                )
        if kind == "ranking":
            size = event.get("size")
            if not isinstance(size, int) or size < 0:
                problems.append(f"{where}: bad size {size!r}")
            top = event.get("top")
            if not isinstance(top, list):
                problems.append(f"{where}: top is not a list")
            else:
                ranks = [row[0] for row in top if isinstance(row, list) and row]
                if ranks != sorted(ranks):
                    problems.append(f"{where}: top ranks not ascending")
        else:  # drift / alert
            tau = event.get("tau")
            if not isinstance(tau, (int, float)) or not -1.0 <= tau <= 1.0:
                problems.append(f"{where}: tau {tau!r} outside [-1, 1]")
            ndcg_value = event.get("ndcg")
            if not isinstance(ndcg_value, (int, float)) or ndcg_value < 0:
                problems.append(f"{where}: bad ndcg {ndcg_value!r}")
        if kind == "alert":
            if event.get("severity") not in SEVERITIES:
                problems.append(
                    f"{where}: unknown severity {event.get('severity')!r}"
                )
            reasons = event.get("reasons")
            if not isinstance(reasons, list) or not reasons:
                problems.append(f"{where}: alert without reasons")
    return problems


def validate_watch_jsonl(text: str) -> list[str]:
    """Parse JSONL text and schema-check it (parse errors included)."""
    events: list[dict] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError as error:
            return [f"line {lineno}: not JSON ({error.msg})"]
    return validate_watch_events(events)
