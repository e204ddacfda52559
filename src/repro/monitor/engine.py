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
  metadata (record count, the auto-resolved country grid) is banked in
  the checkpoint so a fully-banked snapshot is never reloaded, and
  event ids hash stream position + content, never provenance;
* the tracer is observe-only: running under a real
  :class:`repro.obs.Tracer` versus :data:`NULL_TRACER` changes spans
  and ``monitor.*`` instruments, never one byte of the stream.

Checkpoint units are keyed per snapshot by
:func:`repro.resilience.store_key` of its content and config and named
by :func:`repro.resilience.unit_name`, as a sweep's are:
``<key>|snapshot`` holds ``{"records", "countries"}``, ``<key>|<unit>``
a ranking. Labels, the grid, ``top`` and the thresholds key nothing,
so changing them resumes every unit; a regenerated world or a
rewritten release recomputes only its own snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.core.ranking import Ranking
from repro.core.registry import (
    MetricSpec,
    get_spec,
    metric_units,
    normalize_country,
)
from repro.core.session import path_set_country
from repro.io.replay import ReplaySession
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
from repro.resilience.checkpoint import ranking_to_payload, store_key, unit_name

if TYPE_CHECKING:
    from repro.resilience.checkpoint import Checkpoint


@dataclass(frozen=True, slots=True)
class WatchConfig:
    """Everything that shapes a watch run's event stream.

    Only ``seed`` and ``trim`` reach a banked ranking (through each
    snapshot's :meth:`~repro.monitor.snapshots.SnapshotRef.config`);
    the other fields choose what is read and how it is compared.
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


def resolve_specs(
    refs: Sequence[SnapshotRef], config: WatchConfig
) -> list[MetricSpec]:
    """The watched metrics' specs through :func:`get_spec` and, over a
    stream with a release, :meth:`ReplaySession.gate`: checked before
    anything loads (and by the CLI before it opens a checkpoint)."""
    replaying = any(ref.kind == "release" for ref in refs)
    specs: list[MetricSpec] = []
    try:
        for name in config.metrics:
            spec = get_spec(name)
            specs.append(ReplaySession.gate(spec) if replaying else spec)
    except ValueError as error:
        raise WatchError(str(error)) from None
    return specs


def _snapshot_record(checkpoint: "Checkpoint | None", key: str) -> dict | None:
    """The record count and country grid banked for the snapshot of
    ``key``, or ``None`` (a record of any other shape is discarded)."""
    if checkpoint is None:
        return None
    unit = unit_name(key)
    meta = checkpoint.get(unit)
    if meta is None or (
        isinstance(meta, dict)
        and type(meta.get("records")) is int and meta["records"] >= 0
        and isinstance(meta.get("countries"), list)
        and all(isinstance(code, str) for code in meta["countries"])
    ):
        return meta  # type: ignore[return-value]
    checkpoint.discard(unit, "not a snapshot record")
    return None


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
    specs = resolve_specs(refs, config)
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
            ranked_under = ref.config(config.seed, config.trim)
            # keyed only when banking: without a checkpoint a release
            # is never hashed, and a world is built inside its load
            content = ref.content(ranked_under) if checkpoint is not None else None
            key = "" if content is None else store_key(content, ranked_under)
            meta = _snapshot_record(checkpoint, key)

            # Load lazily: a fully-banked snapshot never materializes
            # its pipeline/replay provider on resume.
            provider: object | None = None

            def load() -> object:
                nonlocal provider
                if provider is None:
                    with tracer.span(
                        "watch.load", snapshot=ref.label, kind=ref.kind,
                    ):
                        provider = ref.load(ranked_under, content, tracer=tracer)
                    metrics.counter("monitor.snapshots.loaded").inc()
                return provider

            banked_meta = meta is not None
            if meta is None:
                meta = {
                    "records": len(load().paths.records),
                    "countries": sorted(
                        normalize_country(c) for c in _provider_countries(load())
                    ),
                }
            # The first snapshot and every world check each grid country
            # as a request would, also under global metrics, and without
            # loading a banked snapshot: a world against the world its
            # key was built from, a release against its snapshot record's
            # destination countries. A later release that holds no paths
            # to one still ranks it, so its drift is measured.
            if countries is not None and (index == 0 or ref.kind == "world"):
                try:
                    for code in countries:
                        if ref.kind == "world":
                            world = content if content is not None else load().world
                            world.country_code(code)
                        else:
                            path_set_country(code, meta["countries"], ref.path)
                except ValueError as error:
                    raise WatchError(str(error)) from None
            if countries is None:
                countries = list(meta["countries"])
                if not countries:
                    raise WatchError(
                        f"snapshot {ref.label!r} yields no monitorable "
                        "countries; pass --countries explicitly"
                    )

            units = metric_units(specs, countries)
            with tracer.span(
                "watch.snapshot", snapshot=ref.label, pairs=len(units),
            ):
                emit(snapshot_event(
                    seq=len(events), index=index, label=ref.label,
                    source=ref.kind, records=meta["records"], pairs=len(units),
                ))
                if checkpoint is not None and not banked_meta:
                    checkpoint.put(unit_name(key), meta)

                current: dict[tuple[str, str | None], Ranking] = {}
                for spec, country in units:
                    name = unit_name(key, spec, country)
                    ranking = (
                        checkpoint.ranking(name, spec, country)
                        if checkpoint is not None else None
                    )
                    if ranking is not None:
                        resumed_units += 1
                        metrics.counter("monitor.rankings.resumed").inc()
                    else:
                        session = load()
                        with tracer.span(
                            "watch.ranking", snapshot=ref.label,
                            metric=spec.name, country=country,
                        ):
                            ranking = session.unit_ranking(spec, country)
                        computed_units += 1
                        metrics.counter("monitor.rankings.computed").inc()
                        if checkpoint is not None:
                            checkpoint.put(name, ranking_to_payload(ranking))
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
