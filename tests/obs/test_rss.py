"""Peak-RSS observability: sampled at span close, surfaced as a gauge
and per-stage high-water marks — and kept out of SpanRecord attrs so
the span determinism contract is untouched."""

from repro.obs.export import stage_report, trace_events
from repro.obs.trace import NULL_TRACER, Tracer, peak_rss_bytes


class TestPeakRss:
    def test_reads_a_plausible_value(self):
        rss = peak_rss_bytes()
        assert rss is not None
        # a CPython process is at least a few MB and below a TB
        assert 1_000_000 < rss < 1_000_000_000_000

    def test_monotone(self):
        first = peak_rss_bytes()
        ballast = list(range(200_000))
        second = peak_rss_bytes()
        assert second >= first
        del ballast


class TestTracerSampling:
    def test_span_close_records_stage_peak(self):
        tracer = Tracer()
        with tracer.span("sanitize"):
            pass
        with tracer.span("rank"):
            pass
        assert set(tracer.rss_peaks) == {"sanitize", "rank"}
        assert all(value > 0 for value in tracer.rss_peaks.values())
        gauges = tracer.metrics.gauges()
        assert gauges["obs.memory.peak_rss_bytes"] >= max(
            tracer.rss_peaks.values()
        ) or gauges["obs.memory.peak_rss_bytes"] > 0

    def test_repeated_spans_keep_the_max(self):
        tracer = Tracer()
        with tracer.span("stage"):
            pass
        first = tracer.rss_peaks["stage"]
        with tracer.span("stage"):
            pass
        assert tracer.rss_peaks["stage"] >= first

    def test_attrs_stay_deterministic(self):
        # RSS must not leak into span attrs (two equal-seed runs must
        # produce identical attrs; RSS is an environment measurement)
        tracer = Tracer()
        with tracer.span("stage", input=3):
            pass
        (record,) = tracer.spans
        assert record.attrs == {"input": 3}

    def test_null_tracer_has_empty_peaks(self):
        assert NULL_TRACER.rss_peaks == {}


class TestReporting:
    def test_memory_section_in_stage_report(self):
        tracer = Tracer()
        with tracer.span("sanitize"):
            pass
        report = stage_report(tracer)
        assert "-- memory (process peak RSS) --" in report
        assert "obs.memory.peak_rss_bytes" in report
        assert "at sanitize" in report

    def test_memory_lines_in_mib_lowest_peak_first(self):
        """Every span name is listed, lowest peak first, and every
        figure is bytes / 2**20 labelled MiB (the unit ``ru_maxrss /
        1024`` reads)."""
        tracer = Tracer()
        names = [f"stage{i}" for i in range(10)]
        for name in names:
            with tracer.span(name):
                pass
        tracer.rss_peaks = {
            name: (10 - i) * 2**20 + 2**19 for i, name in enumerate(names)
        }
        tracer.metrics.gauge("obs.memory.peak_rss_bytes").set(3 * 2**30)
        report = stage_report(tracer)
        section = report.split("-- memory (process peak RSS) --\n")[1]
        lines = section.split("\n\n")[0].splitlines()
        assert lines[0].split() == ["obs.memory.peak_rss_bytes", "3072.0MiB"]
        assert [line.split() for line in lines[1:]] == [
            ["at", name, f"{10 - i}.5MiB"]
            for i, name in reversed(list(enumerate(names)))
        ]
        assert "MB" not in section.replace("MiB", "")

    def test_gauge_in_event_stream(self):
        tracer = Tracer()
        with tracer.span("stage"):
            pass
        events = trace_events(tracer)
        gauges = [e for e in events if e["type"] == "gauge"]
        assert any(e["name"] == "obs.memory.peak_rss_bytes" for e in gauges)
