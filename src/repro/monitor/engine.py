"""The watch engine: rankings, drift, and events over a snapshot stream.

:func:`watch` walks an ordered list of :class:`SnapshotRef`\\ s, computes
the configured (metric, country) grid on each snapshot, measures drift
against the previous snapshot (:mod:`repro.monitor.drift`), and emits
the typed event stream (:mod:`repro.monitor.events`). One snapshot's
provider is alive at a time; the previous snapshot survives only as its
grid of rankings, so day N-1 is never recomputed and memory stays flat
in the stream length.

Determinism contract (pinned by ``tests/monitor/test_engine.py``):

* the event stream is **byte-identical** across reruns for a fixed
  snapshot list and config — no clocks, no RNG, no dict-order
  dependence anywhere in the event path;
* it is also byte-identical across a ``--resume`` from any checkpoint
  prefix: resumed rankings are value-exact
  (:func:`repro.resilience.checkpoint.ranking_to_payload`), snapshot
  metadata (record counts, the resolved country grid) is banked in the
  checkpoint so a fully-banked snapshot is never reloaded, and event
  ids hash stream position + content, never provenance;
* the tracer is observe-only: running under a real
  :class:`repro.obs.Tracer` versus :data:`NULL_TRACER` changes spans
  and ``monitor.*`` instruments, never one byte of the stream.

Checkpoint units (stable names — resumable files depend on them):
``watch-snapshot:{label}`` holds ``{"records", "countries"}``;
``watch-ranking:{label}:{spec.unit_key(country)}`` holds the ranking
payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.core.ranking import Ranking
from repro.core.registry import MetricSpec, get_spec, normalize_country
from repro.monitor.drift import alert_reasons, measure_drift
from repro.monitor.events import (
    alert_event,
    drift_event,
    events_to_jsonl,
    ranking_event,
    snapshot_event,
)
from repro.monitor.snapshots import SnapshotRef, WatchError
from repro.obs.trace import NULL_TRACER, AnyTracer
from repro.resilience.checkpoint import ranking_from_payload, ranking_to_payload

if TYPE_CHECKING:
    from repro.resilience.checkpoint import Checkpoint


@dataclass(frozen=True, slots=True)
class WatchConfig:
    """Everything that shapes a watch run's event stream.

    Every field participates in :func:`watch_key` — a checkpoint
    written under one config never resumes a run under another.
    """

    metrics: tuple[str, ...] = ("CCI", "AHI")
    #: monitoring grid; ``None`` resolves from the first snapshot
    countries: tuple[str, ...] | None = None
    #: churn window (the paper's TRA uses the top 10)
    top: int = 10
    #: alert when full-ranking Kendall-τ falls below this
    tau_threshold: float = 0.8
    #: alert when NDCG@top falls below this
    ndcg_threshold: float = 0.9
    #: pipeline seed for world snapshots without an explicit ``@seed``
    seed: int = 0
    #: trimmed-mean fraction for the hegemony/CTI family
    trim: float = 0.1

    def __post_init__(self) -> None:
        if not self.metrics:
            raise WatchError("need at least one metric to watch")
        if self.countries is not None and not self.countries:
            raise WatchError("need at least one country to watch")
        if self.top < 1:
            raise WatchError(f"top must be >= 1 (got {self.top})")
        if not -1.0 <= self.tau_threshold <= 1.0:
            raise WatchError(
                f"tau threshold out of [-1, 1]: {self.tau_threshold}"
            )
        if not 0.0 <= self.ndcg_threshold <= 1.0:
            raise WatchError(
                f"ndcg threshold out of [0, 1]: {self.ndcg_threshold}"
            )


def watch_key(identities: Sequence[str], config: WatchConfig) -> str:
    """The checkpoint content key for one watch run: the snapshot
    stream (each ref's :meth:`~repro.monitor.snapshots.SnapshotRef.identity`,
    so a rewritten release file never resumes its old rankings) plus
    every config knob."""
    stream = ",".join(identities)
    grid = ",".join(config.countries) if config.countries is not None else "<auto>"
    return (
        f"watch/stream={stream}/metrics={','.join(config.metrics)}"
        f"/countries={grid}/top={config.top}"
        f"/tau={config.tau_threshold!r}/ndcg={config.ndcg_threshold!r}"
        f"/seed={config.seed}/trim={config.trim!r}"
    )


@dataclass(frozen=True, slots=True)
class WatchRun:
    """Everything one watch run produced."""

    events: tuple[dict, ...]
    labels: tuple[str, ...]
    metrics: tuple[str, ...]
    countries: tuple[str, ...]
    computed_units: int
    resumed_units: int

    def jsonl(self) -> str:
        """The event stream as JSONL (the byte-identity surface)."""
        return events_to_jsonl(self.events)

    def alerts(self) -> list[dict]:
        return [e for e in self.events if e["type"] == "alert"]

    def drifts(self) -> list[dict]:
        return [e for e in self.events if e["type"] == "drift"]


def _resolve_specs(
    refs: Sequence[SnapshotRef], config: WatchConfig
) -> list[MetricSpec]:
    """Validate the metric list up front, before any loading."""
    specs: list[MetricSpec] = []
    for name in config.metrics:
        try:
            spec = get_spec(name)
        except ValueError as error:
            raise WatchError(str(error)) from None
        if not spec.replayable and any(r.kind == "release" for r in refs):
            raise WatchError(
                f"metric {spec.name!r} cannot be replayed from released "
                "snapshots"
            )
        specs.append(spec)
    return specs


def _provider_countries(provider: object) -> list[str]:
    """The auto-resolved country grid for the first snapshot: countries
    with a qualifying national view for pipeline snapshots, every
    observed destination country for released ones."""
    chooser = getattr(provider, "countries_with_national_view", None)
    if chooser is not None:
        return list(chooser())
    return list(provider.paths.countries())


def watch(
    refs: Sequence[SnapshotRef],
    config: WatchConfig | None = None,
    tracer: AnyTracer = NULL_TRACER,
    checkpoint: "Checkpoint | None" = None,
) -> WatchRun:
    """Run the monitoring engine over an ordered snapshot stream."""
    config = config or WatchConfig()
    if len(refs) < 2:
        raise WatchError(
            f"need at least 2 snapshots to watch for drift (got {len(refs)})"
        )
    specs = _resolve_specs(refs, config)
    countries = (
        None if config.countries is None
        else [normalize_country(c) for c in config.countries]
    )
    metrics = tracer.metrics
    events: list[dict] = []
    previous: dict[tuple[str, str | None], Ranking] | None = None
    previous_label: str | None = None
    computed_units = 0
    resumed_units = 0

    def emit(event: dict) -> None:
        events.append(event)
        metrics.counter("monitor.events").inc()

    with tracer.span("watch", snapshots=len(refs), metrics=len(specs)):
        for index, ref in enumerate(refs):
            meta_unit = f"watch-snapshot:{ref.label}"
            meta = checkpoint.get(meta_unit) if checkpoint is not None else None

            # Load lazily: a fully-banked snapshot never materializes
            # its pipeline/replay provider on resume.
            provider: object | None = None

            def load() -> object:
                nonlocal provider
                if provider is None:
                    with tracer.span(
                        "watch.load", snapshot=ref.label, kind=ref.kind,
                    ):
                        provider = ref.load(
                            config.seed, config.trim, tracer=tracer,
                        )
                    metrics.counter("monitor.snapshots.loaded").inc()
                return provider

            if countries is None:
                countries = (
                    [normalize_country(c) for c in meta["countries"]]
                    if meta is not None
                    else sorted(
                        normalize_country(c)
                        for c in _provider_countries(load())
                    )
                )
                if not countries:
                    raise WatchError(
                        f"snapshot {ref.label!r} yields no monitorable "
                        "countries; pass --countries explicitly"
                    )

            units: list[tuple[MetricSpec, str | None]] = []
            seen: set[tuple[str, str | None]] = set()
            for spec in specs:
                for country in (countries if spec.needs_country else [None]):
                    unit = (spec.name, country)
                    if unit not in seen:
                        seen.add(unit)
                        units.append((spec, country))

            with tracer.span(
                "watch.snapshot", snapshot=ref.label, pairs=len(units),
            ):
                records = (
                    meta["records"] if meta is not None
                    else len(load().paths.records)
                )
                emit(snapshot_event(
                    seq=len(events), index=index, label=ref.label,
                    source=ref.kind, records=records, pairs=len(units),
                ))
                if checkpoint is not None and meta is None:
                    checkpoint.put(meta_unit, {
                        "records": records, "countries": list(countries),
                    })

                current: dict[tuple[str, str | None], Ranking] = {}
                for spec, country in units:
                    unit_name = (
                        f"watch-ranking:{ref.label}:{spec.unit_key(country)}"
                    )
                    payload = (
                        checkpoint.get(unit_name)
                        if checkpoint is not None else None
                    )
                    if payload is not None:
                        ranking = ranking_from_payload(payload)
                        resumed_units += 1
                        metrics.counter("monitor.rankings.resumed").inc()
                    else:
                        with tracer.span(
                            "watch.ranking", snapshot=ref.label,
                            metric=spec.name, country=country,
                        ):
                            ranking = load().ranking(spec.name, country)
                        computed_units += 1
                        metrics.counter("monitor.rankings.computed").inc()
                        if checkpoint is not None:
                            checkpoint.put(
                                unit_name, ranking_to_payload(ranking)
                            )
                    current[(spec.name, country)] = ranking
                    emit(ranking_event(
                        seq=len(events), label=ref.label, ranking=ranking,
                        metric=spec.name, country=country, top=config.top,
                    ))

                if previous is not None:
                    for spec, country in units:
                        before = previous.get((spec.name, country))
                        if before is None:
                            continue
                        with tracer.span(
                            "watch.drift", metric=spec.name, country=country,
                            before=previous_label, after=ref.label,
                        ):
                            report = measure_drift(
                                before, current[(spec.name, country)],
                                previous_label, ref.label, k=config.top,
                                metric=spec.name, country=country,
                            )
                        emit(drift_event(seq=len(events), report=report))
                        metrics.counter("monitor.drifts").inc()
                        metrics.histogram("monitor.drift.tau").observe(report.tau)
                        metrics.histogram("monitor.drift.ndcg").observe(report.ndcg)
                        metrics.counter("monitor.churn.entered").inc(
                            len(report.churn.entered)
                        )
                        metrics.counter("monitor.churn.exited").inc(
                            len(report.churn.exited)
                        )
                        severity, reasons = alert_reasons(
                            report, config.tau_threshold, config.ndcg_threshold,
                        )
                        if reasons:
                            emit(alert_event(
                                seq=len(events), report=report,
                                severity=severity, reasons=reasons,
                            ))
                            metrics.counter("monitor.alerts").inc()

            previous = current
            previous_label = ref.label
            # release this snapshot's resources (its spill, if any):
            # only one provider stays live at a time
            if provider is not None:
                closer = getattr(provider, "close", None)
                if closer is not None:
                    closer()
        metrics.gauge("monitor.snapshots").set(len(refs))
        metrics.gauge("monitor.pairs").set(len(units))
        metrics.gauge("monitor.transitions").set(len(refs) - 1)

    return WatchRun(
        events=tuple(events),
        labels=tuple(ref.label for ref in refs),
        metrics=tuple(spec.name for spec in specs),
        countries=tuple(countries),
        computed_units=computed_units,
        resumed_units=resumed_units,
    )


def render_watch(run: WatchRun) -> str:
    """A human-readable run summary, rendered from the event stream
    alone (anything the renderer needs must be in the events)."""
    lines = [
        "== watch ==",
        f"snapshots: {' -> '.join(run.labels)}",
        f"grid: {len(run.metrics)} metrics x {len(run.countries)} countries"
        f" ({', '.join(run.metrics)} | {', '.join(run.countries)})",
        f"rankings: {run.computed_units} computed, {run.resumed_units} resumed",
    ]
    drifts = run.drifts()
    if drifts:
        lines.append(f"-- drift ({len(drifts)} transitions measured)")
        for event in drifts:
            cell = event["metric"] + (
                f":{event['country']}" if event["country"] else ""
            )
            lines.append(
                f"{cell:<12} {event['before']} -> {event['after']}"
                f"  tau={event['tau']:+.3f}  ndcg={event['ndcg']:.3f}"
                f"  top-{event['top']}: +{len(event['entered'])}"
                f" -{len(event['exited'])}"
            )
    alerts = run.alerts()
    lines.append(f"-- alerts ({len(alerts)})")
    for event in alerts:
        cell = event["metric"] + (
            f":{event['country']}" if event["country"] else ""
        )
        lines.append(
            f"[{event['severity']}] {cell} {event['before']} -> "
            f"{event['after']}: " + "; ".join(event["reasons"])
        )
    if not alerts:
        lines.append("(none)")
    return "\n".join(lines)
