"""Work done inside one fresh child process.

``python -m bench child OP --workload NAME --seed N`` prints one JSON
object as its last line. Times that the parent reports at reference
speed (see :mod:`bench.speed`) are returned as ``intervals``: name ->
[start, end] on ``time.monotonic()``, which every process shares. The
ops:

* ``setup`` — build the world and stop (a set-up sample);
* ``rep`` — one timed repetition through the public API: set-up,
  then the workload's job (``run_pipeline`` plus the sweep), with the
  interval of every operation (ranking unit) and the outputs digested;
* ``plan`` — the serve workload's countries and ``/rank`` units;
* ``traced`` — the same job composed from the layers' functions
  under the benchmark's recorder, plus the layer measurements that
  need calls of their own (fan-out ratios, tracing overhead, service
  probes).
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

from repro.analysis.stability import international_stability, national_stability
from repro.bgp.propagation import propagate_all
from repro.core.pipeline import PipelineConfig, PipelineResult, run_pipeline
from repro.core.registry import get_spec, iter_specs
from repro.geo.vp_geo import VPGeolocator
from repro.perf.pool import WorkerPool
from repro.serve import ArtifactStore, RankingService, store_key
from repro.topology.catalog import build_world

from bench import compose, speed, stats
from bench.env import dir_mb
from bench.serve import unit_path
from bench.spans import Recorder

#: the spill workload's sweep: one metric per family over five of the
#: paper's case-study countries
SPILL_METRICS = ("CCI", "AHN", "AHC", "CTI")
SPILL_COUNTRIES = ("US", "GB", "NL", "JP", "BR")
#: the paper's national-view qualification (>= 7 located VPs)
MIN_NATIONAL_VPS = 7
#: Figures 4 and 5: AHN national and CCI international curves
STABILITY = (
    ("national", national_stability, "AHN"),
    ("international", international_stability, "CCI"),
)
STABILITY_COUNTRIES = 3
STABILITY_TRIALS = 10
FANOUT_WORKERS = 2
#: ranking depths the serve workload asks for
SERVE_KS = (10, 50)


def world_name(smoke: bool) -> str:
    return "small" if smoke else "default"


def qualifying(world) -> list[str]:
    census = VPGeolocator(world.collectors).census()
    return sorted(code for code, n in census.items() if n >= MIN_NATIONAL_VPS)


def config_for(workload: str, seed: int, scratch: str | None) -> PipelineConfig:
    if workload == "spill-medium":
        return PipelineConfig(seed=seed, store_backend="mmap", spill_dir=scratch)
    return PipelineConfig(seed=seed)


def sweep_units(workload: str, world) -> list[tuple[str, str | None]]:
    """The sweep's (metric, country) units in ``rank_all`` order."""
    if workload == "spill-medium":
        countries = [c for c in SPILL_COUNTRIES if c in world.countries]
        return [(m, c) for m in SPILL_METRICS for c in countries]
    countries = qualifying(world)
    return [
        (spec.name, country)
        for spec in iter_specs()
        for country in (countries if spec.needs_country else [None])
    ]


def stability_countries(result: PipelineResult) -> list[str]:
    """The countries of the Figure 4/5 curves, with their views built."""
    countries = qualifying(result.world)[:STABILITY_COUNTRIES]
    for country in countries:
        for kind, _, _ in STABILITY:
            result.view(kind, country)
    return countries


def stability_curves(
    result: PipelineResult, countries: list[str], seed: int, workers: int
) -> list:
    return [
        curve_of(result, country, metric, trials=STABILITY_TRIALS,
                 seed=seed, workers=workers)
        for country in countries
        for _, curve_of, metric in STABILITY
    ]


def ranking_digest(rankings: dict) -> str:
    digest = hashlib.sha256()
    for (metric, country), ranking in rankings.items():
        digest.update(f"{metric}|{country}\n".encode())
        for e in ranking.entries:
            digest.update(f"{e.rank} {e.asn} {e.value!r} {e.share!r}\n".encode())
    return digest.hexdigest()[:16]


def curve_digest(curves) -> str:
    digest = hashlib.sha256()
    for curve in curves:
        digest.update(f"{curve.metric}|{curve.country}|{curve.total_vps}\n".encode())
        for row in curve.as_rows():
            digest.update(f"{row!r}\n".encode())
    return digest.hexdigest()[:16]


def text_digests(result: PipelineResult, rankings: dict) -> dict:
    """sha256 of ``Ranking.render`` per ``/rank`` path and depth: what
    the ``text`` of every serve response must hash to."""
    return {
        f"{unit_path(*unit)}|{k}": hashlib.sha256(
            ranking.render(k, result.as_name).encode()
        ).hexdigest()
        for unit, ranking in rankings.items()
        for k in SERVE_KS
    }


def cold_copy(result: PipelineResult, pool: WorkerPool | None = None) -> PipelineResult:
    """The same pipeline output with empty view and ranking caches."""
    return PipelineResult(
        result.world, result.config, result.outcome, result.ribs,
        result.geodb, result.prefix_geo, result.vp_geo, result.paths,
        result.oracle, result.inferred, pool=pool,
    )


# -- ops ---------------------------------------------------------------------


def op_setup(args) -> dict:
    build_world(world_name(args.smoke), args.seed)
    return {"intervals": {"setup": [args.spawned, time.monotonic()]}}


def op_plan(args) -> dict:
    world = build_world(world_name(args.smoke), args.seed)
    return {
        "countries": qualifying(world),
        "units": sweep_units(args.workload, world),
    }


def op_rep(args) -> dict:
    started = time.monotonic()
    world = build_world(world_name(args.smoke), args.seed)
    built = time.monotonic()
    ops: list[list[float]] = []
    result = run_pipeline(world, config_for(args.workload, args.seed, args.scratch))
    piped = time.monotonic()
    try:
        rankings = {}
        for metric, country in sweep_units(args.workload, world):
            unit_started = time.monotonic()
            rankings[(metric, country)] = result.ranking(metric, country)
            ops.append([unit_started, time.monotonic()])
    finally:
        result.close()
    done = time.monotonic()
    out = {
        "intervals": {
            "setup": [args.spawned, built],
            "pipeline": [built, piped],
            "query": [piped, done],
            "work": [started, done],
        },
        "ops": ops,
        "digest": ranking_digest(rankings),
    }
    if args.workload == "serve-medium":
        out["texts"] = text_digests(result, rankings)
    return out


def op_traced(args) -> dict:
    rec = Recorder()
    started = time.monotonic()
    with rec.span("bench") as root:
        with rec.span("topology.generate"):
            world = build_world(world_name(args.smoke), args.seed)
        config = config_for(args.workload, args.seed, args.scratch)
        result = compose.traced_pipeline(rec, world, config)
        rankings = compose.traced_sweep(rec, result, sweep_units(args.workload, world))
        digest = ranking_digest(rankings)
    intervals = {"work": [started, time.monotonic()]}
    layers = {f"{name}_s": s for name, s in rec.self_times().items()}
    del layers["bench_s"]
    counts = dict(rec.counts)
    total = counts.pop("core.sanitize.total")
    layers["core.sanitize.accept_ratio"] = (
        counts.pop("core.sanitize.accepted") / total
    )
    layers.update(counts)
    layers["bench.coverage"] = rec.coverage(root)
    failures: list[str] = []
    try:
        if args.workload == "spill-medium":
            layers["perf.spill_mb"] = dir_mb(Path(args.scratch))
        elif args.workload == "rank-medium":
            intervals.update(_trace_overhead(world, config))
            fanout, failures = _fanout(result)
            layers.update(fanout)
        elif args.workload == "serve-medium":
            layers.update(_service_probes(result, rankings, Path(args.scratch)))
    finally:
        result.close()
    return {
        "intervals": intervals, "digest": digest, "layers": layers,
        "failures": failures,
    }


def _fanout(result: PipelineResult) -> tuple[dict, list[str]]:
    """The process pool on every CPU, on this run's input:
    ``workers=2`` time over ``workers=1`` time for propagation (each
    on a fresh pool, as ``run_pipeline`` pays for one) and for the
    Figure 4/5 stability curves, whose ``workers=2`` output must equal
    the serial one."""
    speed.unpin()
    world = result.world
    walls = {}
    for workers in (1, FANOUT_WORKERS):
        with WorkerPool(workers) as fresh:
            started = time.perf_counter()
            propagate_all(
                world.graph, keep=world.vp_asns(),
                tiebreak=result.config.tiebreak, workers=workers,
                pool=fresh if workers > 1 else None,
            )
            walls[workers] = time.perf_counter() - started
    with WorkerPool(FANOUT_WORKERS) as pool:
        fanned = cold_copy(result, pool)
        countries = stability_countries(fanned)
        curves = {}
        for workers in (FANOUT_WORKERS, 1):
            started = time.perf_counter()
            curves[workers] = stability_curves(
                fanned, countries, result.config.seed, workers
            )
            walls[f"curves{workers}"] = time.perf_counter() - started
        pool_stats = dict(pool.stats)
    failures = []
    if curve_digest(curves[FANOUT_WORKERS]) != curve_digest(curves[1]):
        failures.append(f"workers={FANOUT_WORKERS} stability curves differ from serial")
    return {
        "analysis.stability_s": walls[f"curves{FANOUT_WORKERS}"],
        "perf.parallel.propagate_ratio": walls[FANOUT_WORKERS] / walls[1],
        "perf.parallel.stability_ratio": walls[f"curves{FANOUT_WORKERS}"] / walls["curves1"],
        **{f"perf.pool.{k}": v for k, v in pool_stats.items()},
    }, failures


def _trace_overhead(world, config: PipelineConfig) -> dict:
    """``run_pipeline`` with the program's tracer off, then on; the
    parent puts both at reference speed before dividing."""
    intervals = {}
    for trace in (False, True):
        started = time.monotonic()
        run_pipeline(world, PipelineConfig(seed=config.seed, trace=trace)).close()
        intervals[f"pipeline_trace{int(trace)}"] = [started, time.monotonic()]
    return intervals


def _service_probes(
    result: PipelineResult, rankings: dict, scratch: Path
) -> dict:
    """The serving layer in-process, on a result with cold caches:
    first-touch ranks (compute plus fsync'd bank), repeated ranks
    (store hits), reports, and bare store appends."""
    cold = cold_copy(result)
    key = store_key(result.world, result.config)
    countries = qualifying(result.world)[:2]
    units = [u for u in rankings if u[1] is None or u[1] in countries]
    timings: dict[str, list[float]] = {"miss": [], "hit": [], "report": [], "put": []}

    def timed(phase: str, call, *call_args) -> None:
        started = time.perf_counter()
        call(*call_args)
        timings[phase].append((time.perf_counter() - started) * 1000.0)

    with ArtifactStore(key, path=scratch / "service.ck") as store:
        service = RankingService(cold, store)
        for phase in ("miss", "hit"):
            for unit in units:
                timed(phase, service.rank, *unit)
        for country in countries:
            timed("report", service.report, country)
    with ArtifactStore(key, path=scratch / "puts.ck") as store:
        for unit in units:
            timed("put", store.put, get_spec(unit[0]), unit[1], rankings[unit])
    return {
        "serve.service.miss_ms": stats.median(timings["miss"]),
        "serve.service.hit_ms": stats.median(timings["hit"]),
        "serve.service.report_ms": stats.median(timings["report"]),
        "serve.store.put_ms": stats.median(timings["put"]),
    }


OPS = {"setup": op_setup, "plan": op_plan, "rep": op_rep, "traced": op_traced}


def main(args) -> int:
    print(json.dumps(OPS[args.op](args)))
    return 0
