"""Tests for the watch event model: ids, serialization, validation."""

import json

from repro.core.ranking import Ranking
from repro.monitor.drift import measure_drift
from repro.monitor.events import (
    alert_event,
    drift_event,
    event_id,
    events_to_jsonl,
    ranking_event,
    snapshot_event,
)

from tests.monitor.event_schema import validate_watch_events, validate_watch_jsonl


def ranking(metric="AHN", scores=None, country="AU"):
    scores = scores if scores is not None else {10: 3.0, 20: 2.0, 30: 1.0}
    return Ranking.from_scores(metric, scores, shares=scores, country=country)


def sample_stream():
    before = ranking(scores={10: 3.0, 20: 2.0, 30: 1.0})
    after = ranking(scores={10: 3.0, 30: 2.0, 40: 1.0})
    report = measure_drift(before, after, "day0", "day1", k=3)
    events = [
        snapshot_event(0, 0, "day0", "world", records=100, pairs=1),
        ranking_event(1, "day0", before, "AHN", "AU", top=3),
        snapshot_event(2, 1, "day1", "world", records=100, pairs=1),
        ranking_event(3, "day1", after, "AHN", "AU", top=3),
        drift_event(4, report),
        alert_event(5, report, "notice", ("top-3 churn: 1 entered, 1 exited",)),
    ]
    return events


class TestEventId:
    def test_deterministic(self):
        assert event_id(3, "drift", "CCI", "RU") == event_id(3, "drift", "CCI", "RU")

    def test_twelve_hex_chars(self):
        eid = event_id(0, "snapshot", "day0")
        assert len(eid) == 12
        assert all(c in "0123456789abcdef" for c in eid)

    def test_position_and_content_sensitive(self):
        base = event_id(1, "ranking", "day0", "AHN", "AU")
        assert event_id(2, "ranking", "day0", "AHN", "AU") != base
        assert event_id(1, "ranking", "day0", "CCI", "AU") != base


class TestSerialization:
    def test_jsonl_round_trips(self):
        events = sample_stream()
        text = events_to_jsonl(events)
        parsed = [json.loads(line) for line in text.splitlines()]
        assert parsed == events

    def test_jsonl_keys_sorted(self):
        for line in events_to_jsonl(sample_stream()).splitlines():
            keys = list(json.loads(line))
            assert keys == sorted(keys)

    def test_shares_rounded(self):
        event = ranking_event(
            0, "day0", ranking(scores={1: 0.123456789}), "AHN", "AU", top=1,
        )
        assert event["top"][0][2] == 0.123457


class TestValidation:
    def test_valid_stream(self):
        assert validate_watch_events(sample_stream()) == []
        assert validate_watch_jsonl(events_to_jsonl(sample_stream())) == []

    def test_unknown_type(self):
        problems = validate_watch_events([{"type": "mystery"}])
        assert any("unknown type" in p for p in problems)

    def test_duplicate_id(self):
        events = sample_stream()
        events[1]["id"] = events[0]["id"]
        assert any("duplicate id" in p for p in validate_watch_events(events))

    def test_seq_gap(self):
        events = sample_stream()
        events[3]["seq"] = 7
        assert any("seq" in p for p in validate_watch_events(events))

    def test_forward_snapshot_reference(self):
        events = sample_stream()
        events[1]["snapshot"] = "day9"
        problems = validate_watch_events(events)
        assert any("before its snapshot event" in p for p in problems)

    def test_tau_out_of_range(self):
        events = sample_stream()
        events[4]["tau"] = 1.5
        assert any("tau" in p for p in validate_watch_events(events))

    def test_alert_without_reasons(self):
        events = sample_stream()
        events[5]["reasons"] = []
        assert any("without reasons" in p for p in validate_watch_events(events))

    def test_unknown_severity(self):
        events = sample_stream()
        events[5]["severity"] = "panic"
        assert any("severity" in p for p in validate_watch_events(events))

    def test_negative_records(self):
        events = sample_stream()
        events[0]["records"] = -1
        assert any("records" in p for p in validate_watch_events(events))

    def test_unsorted_top_ranks(self):
        events = sample_stream()
        events[1]["top"] = [[2, 20, 0.5], [1, 10, 0.9]]
        assert any("not ascending" in p for p in validate_watch_events(events))

    def test_jsonl_parse_error(self):
        assert validate_watch_jsonl("{not json") != []
