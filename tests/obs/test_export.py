"""JSONL event export, schema validation, and the stage report."""

import json

from repro.obs.export import (
    stage_report,
    to_jsonl,
    trace_events,
    validate_events,
    validate_jsonl,
)
from repro.obs.trace import SpanRecord, Tracer


def sample_tracer() -> Tracer:
    tracer = Tracer()
    with tracer.span("pipeline", world="small"):
        with tracer.span("sanitize", input=100) as span:
            span.set(output=80)
        with tracer.span("geolocate", input=10, output=9):
            pass
    tracer.metrics.counter("sanitize.dropped.loop").inc(20)
    tracer.metrics.counter("sanitize.input").inc(100)
    tracer.metrics.counter("sanitize.accepted").inc(80)
    tracer.metrics.gauge("ribs.paths").set(5)
    tracer.metrics.histogram("views.size").observe(42)
    return tracer


class TestEventStream:
    def test_spans_emitted_in_start_order(self):
        events = trace_events(sample_tracer())
        span_names = [e["name"] for e in events if e["type"] == "span"]
        assert span_names == ["pipeline", "sanitize", "geolocate"]

    def test_parent_precedes_child(self):
        events = trace_events(sample_tracer())
        assert validate_events(events) == []

    def test_metric_events_appended(self):
        events = trace_events(sample_tracer())
        kinds = {e["type"] for e in events}
        assert kinds == {"span", "counter", "gauge", "histogram"}
        counter = next(
            e for e in events
            if e["type"] == "counter" and e["name"] == "sanitize.dropped.loop"
        )
        assert counter["value"] == 20

    def test_jsonl_round_trip(self):
        text = to_jsonl(sample_tracer())
        parsed = [json.loads(line) for line in text.splitlines()]
        assert validate_events(parsed) == []
        assert validate_jsonl(text) == []


class TestValidation:
    def test_unresolvable_parent(self):
        events = [{
            "type": "span", "id": 2, "parent": 99, "name": "x",
            "start_s": 0.0, "dur_s": 0.0, "cpu_s": 0.0, "attrs": {},
        }]
        problems = validate_events(events)
        assert any("parent" in p for p in problems)

    def test_duplicate_span_id(self):
        span = {
            "type": "span", "id": 1, "parent": None, "name": "x",
            "start_s": 0.0, "dur_s": 0.0, "cpu_s": 0.0, "attrs": {},
        }
        problems = validate_events([span, dict(span)])
        assert any("duplicate" in p for p in problems)

    def test_negative_duration(self):
        events = [{
            "type": "span", "id": 1, "parent": None, "name": "x",
            "start_s": 0.0, "dur_s": -0.5, "cpu_s": 0.0, "attrs": {},
        }]
        assert any("dur_s" in p for p in validate_events(events))

    def test_negative_volume_attr(self):
        events = [{
            "type": "span", "id": 1, "parent": None, "name": "x",
            "start_s": 0.0, "dur_s": 0.0, "cpu_s": 0.0,
            "attrs": {"input": -3},
        }]
        assert any("negative volume" in p for p in validate_events(events))

    def test_missing_name(self):
        assert any(
            "name" in p
            for p in validate_events([{"type": "counter", "value": 1}])
        )

    def test_unknown_type(self):
        assert any(
            "unknown type" in p
            for p in validate_events([{"type": "mystery"}])
        )

    def test_bad_jsonl_line(self):
        assert any("not JSON" in p for p in validate_jsonl("{nope}"))


class TestStageReport:
    def test_tree_volumes_and_drops(self):
        report = stage_report(sample_tracer())
        assert "pipeline" in report
        assert "  sanitize" in report  # indented under pipeline
        assert "20.0%" in report       # 100 -> 80

    def test_table1_section_from_counters(self):
        report = stage_report(sample_tracer())
        assert "sanitize drops" in report
        assert "loop" in report
        assert "accepted" in report

    def test_rows_carry_identity_and_metric_spans_no_drop(self):
        tracer = Tracer()
        with tracer.span("sweep"):
            for metric in ("AHN", "CCN"):
                with tracer.span("ranking", metric=metric, country="AU") as span:
                    with tracer.span(
                        "hegemony", metric=f"{metric}:AU", input=1752,
                    ) as inner:
                        inner.set(output=63)
                    span.set(output=63)
            with tracer.span("ranking", metric="AHG", country=None):
                pass
            with tracer.span("views", kind="national", country="AU",
                             input=200, output=50):
                pass
        report = stage_report(tracer)
        rows = report.splitlines()
        assert any(row.startswith("  ranking AHN AU ") for row in rows)
        assert any(row.startswith("  ranking CCN AU ") for row in rows)
        assert any(row.startswith("  ranking AHG ") for row in rows)
        assert any(row.startswith("    hegemony AHN:AU ") for row in rows)
        # a metric span's output counts ranked ASes, not surviving records
        assert "96.4%" not in report
        views = next(row for row in rows if "views national AU" in row)
        assert views.endswith("75.0%")

    def test_custom_title(self):
        assert stage_report(sample_tracer(), title="hello") .startswith("== hello ==")

    def test_self_column_is_wall_less_children(self):
        tracer = Tracer()
        tracer.spans.extend([
            SpanRecord(1, None, "ranking", 0.0, 0.4, 0.4, None),
            SpanRecord(2, 1, "views", 0.0, 0.1, 0.1, None),
            SpanRecord(3, 1, "hegemony", 0.1, 0.25, 0.25, None),
        ])
        rows = stage_report(tracer).splitlines()
        assert rows[1].split()[:4] == ["stage", "wall", "self", "cpu"]
        ranking = next(row for row in rows if row.startswith("ranking"))
        # 400 ms of wall time, 350 of them in its two children
        assert ranking.split()[1:4] == ["400.0ms", "50.0ms", "400.0ms"]
        leaf = next(row for row in rows if "hegemony" in row)
        assert leaf.split()[1:4] == ["250.0ms", "250.0ms", "250.0ms"]
