"""Exports for one traced run: JSONL events, Prometheus text, and the
Figure-6-style stage report.

Three consumers, three formats:

* :func:`trace_events` / :func:`to_jsonl` — the raw telemetry as a flat
  event stream (one JSON object per line): every span in completion
  order, then a snapshot event per metric. This is what
  ``repro-rank trace --json`` prints and what benchmark runs persist as
  ``benchmarks/output/pipeline_trace.json``.
* :func:`to_prometheus` — a Prometheus-style text exposition of the
  metrics registry (counters as ``_total``, histograms as
  ``_count``/``_sum``/``_min``/``_max``).
* :func:`stage_report` — the human-readable pipeline stage report:
  span tree with wall/CPU time, input/output volumes and drop ratios,
  followed by the Table-1 drop accounting, the geolocation accounting,
  and (for ``repro-lint --trace`` / ``watch --trace`` runs) the
  ``lint.*`` / ``monitor.*`` run stats, all rendered from the metric
  counters (so they are, by construction, the instrumented truth).

:func:`validate_events` is the schema check used by the smoke tests;
:func:`trace_diff` compares two ``--json`` streams span name by span
name (``repro-rank trace --diff OLD NEW``).
"""

from __future__ import annotations

import json
import re
from typing import Iterable

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import SpanRecord, Tracer

#: Table-1 categories, mirroring repro.core.sanitize.REJECT_CATEGORIES
#: (kept literal here so obs stays dependency-free of core).
_DROP_CATEGORIES = (
    "unstable", "unallocated", "loop", "poisoned",
    "vp_no_location", "covered", "prefix_no_location",
)


# -- event stream -----------------------------------------------------------

def trace_events(tracer: Tracer) -> list[dict]:
    """The run as a flat list of JSON-ready event dicts.

    Spans are emitted in start order (span ids are allocated when a
    span opens), so a parent always precedes its children in the
    stream — the invariant :func:`validate_events` checks.
    """
    events: list[dict] = []
    for record in sorted(tracer.spans, key=lambda r: r.span_id):
        events.append({
            "type": "span",
            "id": record.span_id,
            "parent": record.parent_id,
            "name": record.name,
            "start_s": round(record.start_s, 6),
            "dur_s": round(record.dur_s, 6),
            "cpu_s": round(record.cpu_s, 6),
            "mem_peak": record.mem_peak,
            "attrs": dict(record.attrs),
        })
    for name, payload in tracer.metrics.snapshot().items():
        events.append({"type": payload["kind"], "name": name,
                       **{k: v for k, v in payload.items() if k != "kind"}})
    return events


def to_jsonl(tracer: Tracer) -> str:
    """The event stream as JSON Lines text."""
    return "\n".join(json.dumps(event, sort_keys=True) for event in trace_events(tracer))


def validate_events(events: Iterable[dict]) -> list[str]:
    """Schema-check an event stream; returns problems (empty = valid).

    Rules: every event has a ``type``; spans carry a non-empty ``name``,
    non-negative ``dur_s``/``cpu_s``, a unique ``id``, a ``parent`` that
    is ``null`` or resolves to an already-emitted span, and non-negative
    numeric volume attrs; counters/gauges/histograms carry non-negative
    values.
    """
    problems: list[str] = []
    seen_ids: set[int] = set()
    for index, event in enumerate(events):
        where = f"event {index}"
        kind = event.get("type")
        if kind not in ("span", "counter", "gauge", "histogram"):
            problems.append(f"{where}: unknown type {kind!r}")
            continue
        name = event.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where}: missing name")
        if kind == "span":
            span_id = event.get("id")
            if not isinstance(span_id, int):
                problems.append(f"{where}: span id missing")
            elif span_id in seen_ids:
                problems.append(f"{where}: duplicate span id {span_id}")
            else:
                seen_ids.add(span_id)
            parent = event.get("parent")
            if parent is not None and parent not in seen_ids:
                problems.append(
                    f"{where}: parent {parent!r} does not resolve to an "
                    "earlier span"
                )
            for field in ("dur_s", "cpu_s", "start_s"):
                value = event.get(field)
                if not isinstance(value, (int, float)) or value < 0:
                    problems.append(f"{where}: bad {field} {value!r}")
            attrs = event.get("attrs", {})
            if not isinstance(attrs, dict):
                problems.append(f"{where}: attrs is not a dict")
            else:
                for key, value in attrs.items():
                    if isinstance(value, (int, float)) and not isinstance(
                        value, bool
                    ) and value < 0:
                        problems.append(f"{where}: negative volume {key}={value}")
        elif kind == "counter":
            value = event.get("value")
            if not isinstance(value, int) or value < 0:
                problems.append(f"{where}: bad counter value {value!r}")
        elif kind == "histogram":
            count = event.get("count")
            if not isinstance(count, int) or count < 0:
                problems.append(f"{where}: bad histogram count {count!r}")
    return problems


def validate_jsonl(text: str) -> list[str]:
    """Parse JSONL text and schema-check it (parse errors included)."""
    events: list[dict] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError as error:
            return [f"line {lineno}: not JSON ({error.msg})"]
    return validate_events(events)


# -- trace diff -------------------------------------------------------------

def _children_times(spans: Iterable[tuple[int | None, float]]) -> dict[int, float]:
    """Per span id, the summed wall time of its children, from each
    span's ``(parent id, wall time)``."""
    children: dict[int, float] = {}
    for parent, dur in spans:
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + dur
    return children


def _self_time(dur: float, children: float) -> float:
    """A span's self time: its wall time less its children's (never
    negative, though clock rounding can make the children overrun)."""
    return max(dur - children, 0.0)


def span_times(events: Iterable[dict]) -> dict[str, tuple[float, float]]:
    """Per span name, in first-appearance order, the summed wall time
    and self time (a span's wall time less its children's) of the
    stream's spans."""
    spans = [event for event in events if event.get("type") == "span"]
    children = _children_times((span.get("parent"), span["dur_s"]) for span in spans)
    totals: dict[str, tuple[float, float]] = {}
    for span in spans:
        wall, own = totals.get(span["name"], (0.0, 0.0))
        totals[span["name"]] = (
            wall + span["dur_s"],
            own + _self_time(span["dur_s"], children.get(span["id"], 0.0)),
        )
    return totals


def trace_diff(old: Iterable[dict], new: Iterable[dict]) -> str:
    """A per-span-name delta table of two trace event streams: summed
    wall and self time on each side, the delta and the new/old ratio,
    names in first-appearance order (the old stream's, then names only
    the new one has)."""
    before, after = span_times(old), span_times(new)
    names = list(before) + [name for name in after if name not in before]
    width = max([len("span")] + [len(name) for name in names]) + 2
    columns = ("old wall", "new wall", "delta", "ratio",
               "old self", "new self", "delta", "ratio")
    lines = [f"{'span':<{width}}" + "".join(f"{label:>10}" for label in columns)]
    for name in names:
        cells: list[str] = []
        for side in (0, 1):
            was = before.get(name, (0.0, 0.0))[side]
            now = after.get(name, (0.0, 0.0))[side]
            delta = now - was
            cells += [
                _fmt_duration(was), _fmt_duration(now),
                ("+" if delta >= 0 else "-") + _fmt_duration(abs(delta)).strip(),
                f"{now / was:.2f}x" if was > 0 else "-",
            ]
        lines.append(f"{name:<{width}}" + "".join(f"{cell:>10}" for cell in cells))
    return "\n".join(lines)


# -- prometheus exposition --------------------------------------------------

#: Prometheus metric names must match ``[a-zA-Z_:][a-zA-Z0-9_:]*``;
#: anything else in an instrument name collapses to ``_``.
_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    sanitized = _PROM_INVALID.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return "repro_" + sanitized


def to_prometheus(metrics: MetricsRegistry) -> str:
    """Prometheus text exposition of one metrics registry."""
    lines: list[str] = []
    for name, value in metrics.counters().items():
        prom = _prom_name(name) + "_total"
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {value}")
    for name, value in metrics.gauges().items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {value:g}")
    for name, hist in metrics.histograms().items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} summary")
        lines.append(f"{prom}_count {hist.count}")
        lines.append(f"{prom}_sum {hist.total:g}")
        if hist.count:
            lines.append(f"{prom}_min {hist.min:g}")
            lines.append(f"{prom}_max {hist.max:g}")
    return "\n".join(lines)


# -- stage report -----------------------------------------------------------

def _fmt_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:7.3f}s"
    return f"{seconds * 1000.0:6.1f}ms"


def _fmt_volume(value: object) -> str:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return f"{int(value):>9}"
    return f"{'-':>9}"


def _mib(size: float) -> str:
    """A byte count in MiB (2**20 bytes), the unit ``ru_maxrss / 1024``
    reads on Linux."""
    return f"{size / 2**20:.1f}MiB"


#: span attributes that say *which* unit a span computed; their values
#: follow the span name in the row label, so a sweep's rows differ
_IDENTITY_ATTRS = ("snapshot", "stage", "endpoint", "kind", "metric", "country")
#: spans whose ``output`` counts the ``input`` records that survived; a
#: metric span's ``output`` counts ranked ASes, so it has no drop ratio
_FILTER_SPANS = frozenset(("sanitize", "geolocate", "views"))
_LABEL_WIDTH = 36


def _span_label(record: SpanRecord, depth: int) -> str:
    identity = [
        str(record.attrs[key]) for key in _IDENTITY_ATTRS
        if record.attrs.get(key) is not None
    ]
    return "  " * depth + " ".join([record.name, *identity])


def _span_row(record: SpanRecord, depth: int, self_s: float) -> str:
    attrs = record.attrs
    inp = attrs.get("input")
    out = attrs.get("output")
    drop = "-"
    if (
        record.name in _FILTER_SPANS
        and isinstance(inp, (int, float)) and isinstance(out, (int, float))
        and not isinstance(inp, bool) and inp > 0
    ):
        drop = f"{100.0 * (1.0 - out / inp):.1f}%"
    mem = ""
    if record.mem_peak is not None:
        mem = f"  peak {_mib(record.mem_peak)}"
    return (
        f"{_span_label(record, depth):<{_LABEL_WIDTH}}"
        f"{_fmt_duration(record.dur_s)}{_fmt_duration(self_s)}"
        f"{_fmt_duration(record.cpu_s)}"
        f"{_fmt_volume(inp)}{_fmt_volume(out)}{drop:>8}{mem}"
    )


def stage_report(tracer: Tracer, title: str = "pipeline stage report") -> str:
    """The Figure-6-style per-stage accounting, rendered for a terminal.

    Each span row is labelled with its name and identity attributes
    (``ranking AHN AU``) and shows its wall time, its self time (wall
    less its children's, as :func:`span_times` counts it) and its CPU
    time; the drop column is shown for the filtering stages only
    (``sanitize``, ``geolocate``, ``views``).
    """
    lines = [f"== {title} =="]
    lines.append(
        f"{'stage':<{_LABEL_WIDTH}}{'wall':>8}{'self':>8}{'cpu':>8}{'in':>9}"
        f"{'out':>9}{'drop':>8}"
    )
    children: dict[int | None, list[SpanRecord]] = {}
    for record in tracer.spans:
        children.setdefault(record.parent_id, []).append(record)
    children_times = _children_times(
        (record.parent_id, record.dur_s) for record in tracer.spans
    )

    def emit(record: SpanRecord, depth: int) -> None:
        lines.append(_span_row(record, depth, _self_time(
            record.dur_s, children_times.get(record.span_id, 0.0)
        )))
        for child in sorted(
            children.get(record.span_id, ()), key=lambda r: r.start_s
        ):
            emit(child, depth + 1)

    for root in sorted(children.get(None, ()), key=lambda r: r.start_s):
        emit(root, 0)

    counters = tracer.metrics.counters()
    drop_rows = [
        (category, counters.get(f"sanitize.dropped.{category}", 0))
        for category in _DROP_CATEGORIES
    ]
    total = counters.get("sanitize.input", 0)
    if total:
        lines.append("")
        lines.append("-- sanitize drops (Table 1, announcement units) --")
        for category, count in drop_rows:
            lines.append(f"  {category:<20}{count:>10}{100.0 * count / total:>8.2f}%")
        accepted = counters.get("sanitize.accepted", 0)
        lines.append(f"  {'accepted':<20}{accepted:>10}{100.0 * accepted / total:>8.2f}%")
        lines.append(f"  {'total':<20}{total:>10}{100.0:>8.2f}%")

    geo_keys = [key for key in counters if key.startswith("geo.prefixes.")]
    if geo_keys:
        lines.append("")
        lines.append("-- prefix geolocation --")
        for key in geo_keys:
            lines.append(f"  {key:<28}{counters[key]:>10}")

    gauges = tracer.metrics.gauges()
    memory_keys = [key for key in gauges if key.startswith("obs.memory.")]
    if memory_keys:
        lines.append("")
        lines.append("-- memory (process peak RSS) --")
        for key in memory_keys:
            lines.append(f"  {key:<28}{_mib(gauges[key]):>12}")
        # every span name, lowest peak first: the process peak only
        # rises, so the earliest stages (``pipeline`` before a daemon's
        # requests) read where the process stood when they closed
        for name, peak in sorted(
            tracer.rss_peaks.items(), key=lambda item: (item[1], item[0])
        ):
            lines.append(f"    at {name:<24}{_mib(peak):>12}")
    lint_counters = [key for key in counters if key.startswith("lint.")]
    if lint_counters:
        lines.append("")
        lines.append("-- lint (repro-lint run stats) --")
        for key in lint_counters:
            lines.append(f"  {key:<28}{counters[key]:>10}")
        for key, value in gauges.items():
            if key.startswith("lint."):
                lines.append(f"  {key:<28}{value:>10g}")

    monitor_counters = [key for key in counters if key.startswith("monitor.")]
    if monitor_counters:
        lines.append("")
        lines.append("-- monitor (watch run stats) --")
        for key in monitor_counters:
            lines.append(f"  {key:<28}{counters[key]:>10}")
        for key, value in gauges.items():
            if key.startswith("monitor."):
                lines.append(f"  {key:<28}{value:>10g}")

    serve_counters = [key for key in counters if key.startswith("serve.")]
    if serve_counters:
        lines.append("")
        lines.append("-- serve (daemon run stats) --")
        for key in serve_counters:
            lines.append(f"  {key:<28}{counters[key]:>10}")
        for key, value in gauges.items():
            if key.startswith("serve."):
                lines.append(f"  {key:<28}{value:>10g}")

    histograms = tracer.metrics.histograms()
    if histograms:
        lines.append("")
        lines.append("-- distributions --")
        for name, hist in histograms.items():
            lines.append(
                f"  {name:<24}n={hist.count:<6}mean={hist.mean():<12.1f}"
                f"min={hist.min if hist.count else 0:<10g}"
                f"max={hist.max if hist.count else 0:g}"
            )
    return "\n".join(lines)
