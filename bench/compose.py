"""The traced run: the workload's work composed from the layers'
public functions, each call wrapped in a benchmark span.

:func:`traced_pipeline` mirrors :meth:`repro.core.pipeline.Pipeline.run`
step for step, so its :class:`~repro.core.pipeline.PipelineResult` is
interchangeable with ``run_pipeline``'s; the digest check in the
traced run holds it to that byte for byte. Span names are the
per-layer metric names without their unit suffix.
"""

from __future__ import annotations

from pathlib import Path

from repro.bgp.propagation import propagate_all
from repro.bgp.rib import generate_rib_days
from repro.core.pipeline import PipelineConfig, PipelineResult
from repro.core.registry import get_spec
from repro.core.sanitize import FilterReport, sanitize, sanitize_stream
from repro.geo.database import GeoDatabase
from repro.geo.prefix_geo import geolocate_prefixes
from repro.geo.vp_geo import VPGeolocator
from repro.perf.pool import WorkerPool
from repro.perf.spill import SpillWriter, open_spill
from repro.topology.world import World

from bench.spans import Recorder

def traced_pipeline(
    rec: Recorder, world: World, config: PipelineConfig,
    pool: WorkerPool | None = None,
) -> PipelineResult:
    """``run_pipeline(world, config)``; ``pool`` serves the fan-outs
    when ``config.workers > 1`` and is closed with the result."""
    with rec.span("bgp.propagate"):
        outcomes = [
            propagate_all(
                world.graph, keep=world.vp_asns(), tiebreak=config.tiebreak,
                salt=salt, workers=config.workers, pool=pool,
            )
            for salt in range(config.path_diversity)
        ]
    with rec.span("bgp.ribs"):
        ribs = generate_rib_days(world, outcomes, config.rib, config.seed)
    with rec.span("geo.geodb"):
        geodb = GeoDatabase.from_world(
            world, config.geo_noise_rate, config.geo_miss_rate,
            config.seed + 1, config.family,
        )
    with rec.span("geo.prefix"):
        prefix_geo = geolocate_prefixes(
            world.announced_prefixes(), geodb, config.geo_threshold,
            version=config.family,
        )
        vp_geo = VPGeolocator(world.collectors)
    graph = world.graph
    records = rec.timed(
        (r for r in ribs.records() if r.prefix.version == config.family),
        "bgp.records",
    )
    filters = dict(
        clique=graph.clique(),
        is_allocated=graph.asn_registry.is_allocated,
        route_servers=graph.route_servers(),
        vp_geo=vp_geo,
        prefix_geo=prefix_geo,
    )
    with rec.span("core.sanitize"):
        if config.store_backend == "mmap":
            paths = _sanitize_to_spill(rec, records, filters, config.spill_dir)
        else:
            paths = sanitize(records, **filters)
    report = paths.report
    rec.count("core.sanitize.total", report.total)
    rec.count("core.sanitize.accepted", report.accepted)
    with rec.span("perf.store"):
        paths.store()
    return PipelineResult(
        world, config, outcomes[0], ribs, geodb, prefix_geo, vp_geo, paths,
        graph, None, outcomes=outcomes, pool=pool,
    )


def _sanitize_to_spill(rec, records, filters, directory) -> object:
    """:func:`repro.perf.spill.sanitize_to_store` for a fresh
    directory, with the spill writes timed apart from the filter."""
    counted = _Counted(records)
    report = FilterReport()
    writer = SpillWriter(Path(directory))
    clock = rec.clock
    spill = 0.0
    started = clock()
    writer.prepare(report)
    spill += clock() - started
    for accepted in sanitize_stream(counted, report=report, **filters):
        started = clock()
        writer.add(accepted)
        writer.maybe_checkpoint(counted.pulled, report)
        spill += clock() - started
    started = clock()
    writer.seal(counted.pulled, report)
    paths = open_spill(directory)
    rec.credit("perf.store", spill + clock() - started)
    return paths


class _Counted:
    """An iterator that counts what it hands out (the spill writer
    checkpoints the consumed input position)."""

    def __init__(self, items) -> None:
        self._items = iter(items)
        self.pulled = 0

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self._items)
        self.pulled += 1
        return item


def traced_sweep(
    rec: Recorder, result: PipelineResult,
    units: list[tuple[str, str | None]],
) -> dict:
    """Every unit's ranking, with the view build and the metric family
    timed apart (``rank_all`` does the same calls in the same order)."""
    with rec.span("perf.index"):
        result.path_index()
    rankings = {}
    for metric, country in units:
        spec = get_spec(metric)
        with rec.span("core.views"):
            result.view(
                spec.view_kind, None if spec.view_kind == "global" else country
            )
        span = f"core.{spec.family}"
        with rec.span(span):
            rankings[(metric, country)] = result.ranking(metric, country)
        rec.count(span + ".units")
    return rankings
