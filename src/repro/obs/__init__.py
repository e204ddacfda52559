"""repro.obs — structured tracing, metrics, and per-stage accounting.

The measurement layer under every pipeline stage: a span tracer
(:mod:`repro.obs.trace`), a counters/gauges/histograms registry
(:mod:`repro.obs.metrics`), and exporters for JSONL traces, Prometheus
text, and the Figure-6-style stage report (:mod:`repro.obs.export`).

Enable it with ``PipelineConfig(trace=True)`` (the collected telemetry
rides on ``PipelineResult.trace``) or drive it from the CLI with
``repro-rank trace``.
"""

from repro.obs.export import (
    stage_report,
    to_jsonl,
    to_prometheus,
    trace_diff,
    trace_events,
    validate_events,
    validate_jsonl,
)
from repro.obs.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
)
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    NullSpan,
    NullTracer,
    Span,
    SpanRecord,
    Tracer,
)

__all__ = [
    "NULL_METRICS",
    "NULL_SPAN",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NullSpan",
    "NullTracer",
    "Span",
    "SpanRecord",
    "Tracer",
    "stage_report",
    "to_jsonl",
    "to_prometheus",
    "trace_diff",
    "trace_events",
    "validate_events",
    "validate_jsonl",
]
