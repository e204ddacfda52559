"""End-to-end observability: instrumented counters must agree exactly
with the pipeline's own reports, and a traced run must cover every
Figure-6 stage with schema-valid events."""

import pytest

from repro.cli import run_traced
from repro.core.sanitize import REJECT_CATEGORIES
from repro.obs.export import to_jsonl, trace_events, validate_jsonl


@pytest.fixture(scope="module")
def traced():
    """One traced small-world run with all four metric families."""
    result, tracer = run_traced("small", seed=0, country="AU")
    yield result, tracer
    tracer.close()


class TestCountersMatchReports:
    def test_drop_counters_equal_filter_report(self, traced):
        result, tracer = traced
        report = result.paths.report
        counters = tracer.metrics.counters()
        for category in REJECT_CATEGORIES:
            assert counters[f"sanitize.dropped.{category}"] == (
                report.rejected[category]
            ), category
        assert counters["sanitize.input"] == report.total
        assert counters["sanitize.accepted"] == report.accepted

    def test_geo_counters_equal_geolocation_outcome(self, traced):
        result, tracer = traced
        geo = result.prefix_geo
        counters = tracer.metrics.counters()
        assert counters["geo.prefixes.accepted"] == len(geo.country_of)
        assert counters["geo.prefixes.covered"] == len(geo.covered)
        assert counters["geo.prefixes.no_consensus"] == len(geo.no_consensus)
        gauges = tracer.metrics.gauges()
        assert gauges["geo.addresses.owned"] == sum(geo.owned_addresses.values())

    def test_geo_counters_equal_filtering_stats_totals(self, traced):
        """The per-country Tables 13–14 stats must sum back to the
        instrumented accept/reject counters (a no-consensus prefix is
        attributed once per plurality country in the stats)."""
        result, tracer = traced
        geo = result.prefix_geo
        counters = tracer.metrics.counters()
        stats = geo.stats_by_country()
        accepted_from_stats = sum(
            s.total_prefixes - s.filtered_prefixes for s in stats.values()
        )
        assert counters["geo.prefixes.accepted"] == accepted_from_stats
        filtered_pairs = sum(
            len(geo.plurality_of.get(prefix, ())) for prefix in geo.no_consensus
        )
        assert sum(s.filtered_prefixes for s in stats.values()) == filtered_pairs
        # Pairs collapse back to the counter when no prefix ties between
        # countries; either way the counter is the authoritative count.
        assert counters["geo.prefixes.no_consensus"] == len(geo.no_consensus)
        assert filtered_pairs >= counters["geo.prefixes.no_consensus"]

    def test_ribs_gauges_match_series(self, traced):
        result, tracer = traced
        gauges = tracer.metrics.gauges()
        assert gauges["ribs.vps"] == len(result.ribs.vps)
        assert gauges["ribs.prefixes"] == len(result.ribs.prefix_table)
        assert gauges["ribs.overrides"] == len(result.ribs.overrides)


class TestStageCoverage:
    REQUIRED = {
        "ribs", "sanitize", "geolocate", "views", "cone", "hegemony",
        "ahc", "cti", "ranking", "propagate.plane", "pipeline",
    }

    def test_all_pipeline_stages_present(self, traced):
        _, tracer = traced
        names = set(tracer.stage_names())
        missing = self.REQUIRED - names
        assert not missing, f"missing stages: {sorted(missing)}"
        assert len(self.REQUIRED) >= 8

    def test_jsonl_schema_valid(self, traced):
        _, tracer = traced
        assert validate_jsonl(to_jsonl(tracer)) == []

    def test_span_volumes_nonnegative_and_linked(self, traced):
        _, tracer = traced
        events = trace_events(tracer)
        spans = [e for e in events if e["type"] == "span"]
        ids = {e["id"] for e in spans}
        for event in spans:
            assert event["dur_s"] >= 0.0
            assert event["parent"] is None or event["parent"] in ids


class TestSanitizeSpans:
    """The ``sanitize`` span's three phases hang under it, once per
    record window, each saying what it took in and put out."""

    PHASES = ("sanitize.paths", "sanitize.fates", "sanitize.rows")

    def test_phases_per_window_under_sanitize(self, traced):
        result, tracer = traced
        [sanitize] = [s for s in tracer.spans if s.name == "sanitize"]
        children = sorted(
            (s for s in tracer.spans if s.parent_id == sanitize.span_id),
            key=lambda s: s.start_s,
        )
        names = [s.name for s in children]
        assert names and len(names) % 3 == 0
        assert names == list(self.PHASES) * (len(names) // 3)
        for span in children:
            assert {"input", "output"} <= set(span.attrs), span.name
            assert 0 <= span.attrs["output"] <= span.attrs["input"], span.name
        by_name = {
            name: [s for s in children if s.name == name] for name in self.PHASES
        }
        records = len(result.paths.records)
        assert sanitize.attrs["records"] == records
        # accepted rows leave the fates phase and become records
        assert sum(s.attrs["output"] for s in by_name["sanitize.fates"]) == records
        assert sum(s.attrs["input"] for s in by_name["sanitize.rows"]) == records
        assert sum(s.attrs["output"] for s in by_name["sanitize.rows"]) == records
        # every distinct stored path was judged once, in some window
        judged = sum(s.attrs["input"] for s in by_name["sanitize.paths"])
        assert judged >= len(result.paths.store())

    def test_counters_unchanged_by_the_phases(self, traced):
        result, tracer = traced
        [sanitize] = [s for s in tracer.spans if s.name == "sanitize"]
        report = result.paths.report
        assert sanitize.attrs["input"] == report.total
        assert sanitize.attrs["output"] == report.accepted


class TestTraceKnob:
    def test_untraced_result_has_no_trace(self):
        from repro.core.pipeline import PipelineConfig, run_pipeline
        from repro.cli import build_world

        result = run_pipeline(build_world("small", 0), PipelineConfig(seed=0))
        assert result.trace is None

    def test_traced_result_exposes_tracer(self, traced):
        result, tracer = traced
        assert result.trace is tracer

    def test_invalid_trace_value_rejected(self):
        from repro.core.pipeline import PipelineConfig

        with pytest.raises(ValueError):
            PipelineConfig(trace="yes")
