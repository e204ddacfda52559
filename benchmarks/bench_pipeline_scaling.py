"""Perf trajectory: batch ranking engine scaling benchmark.

Times, per world (small / medium):

* **cold pipeline** — a full ``run_pipeline`` (propagate → RIBs →
  sanitize → geolocate), serial;
* **naive sweep** — the pre-batch-engine behaviour: every (metric,
  country) pair rebuilds its view by scanning a list of all sanitized
  records and recomputes every intermediate (transit suffixes, cones,
  per-VP betweenness, address totals) from scratch with the reference
  scorers (:func:`~repro.core.cone.cone_addresses`,
  :func:`~repro.core.hegemony.hegemony_scores`,
  :func:`~repro.core.cti.cti_scores`) — a second program the indexed
  sweep must agree with;
* **indexed sweep** — ``PipelineResult.rank_all`` over the same pairs:
  shared path index + cross-metric intermediate caches.

Each world entry also records a per-stage wall-clock breakdown and
per-stage process peak-RSS high-water marks (``peak_rss_bytes``, from
the tracer's ``getrusage`` sampling) from a traced serial run, and the
report carries host provenance (logical CPUs, *usable* CPUs via
``sched_getaffinity``, Python, platform).

Also times the monitoring engine (``repro-rank watch``) over a
3-snapshot small-world stream with the obs layer off and on, recording
events/s and the obs overhead ratio under the report's ``watch`` key.

Writes ``BENCH_pipeline.json`` at the repo root (override with
``--output``) and exits non-zero when the indexed-vs-naive speedup
falls below ``--min-speedup`` — the hook ``make bench-smoke`` uses to
fail loudly on perf regressions.

Run:  PYTHONPATH=src python benchmarks/bench_pipeline_scaling.py
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

from repro import (
    GeneratorConfig,
    PipelineConfig,
    PipelineResult,
    generate_world,
    run_pipeline,
    small_profiles,
)
from repro.core.cone import cone_addresses
from repro.core.cti import cti_scores
from repro.core.hegemony import hegemony_scores
from repro.core.ranking import Ranking
from repro.core.registry import get_spec
from repro.core.sanitize import PathRecord
from repro.obs.trace import Tracer

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The paper's four country metrics plus the CTI baseline — the
#: composition of the Tables 9–12 sweeps.
SWEEP_METRICS = ("CCI", "CCN", "AHI", "AHN", "CTI")

#: naive (full-scan) view selectors, keyed by the registry's view
#: kind: does a record belong to the view of ``country``?
_NAIVE_VIEW_FILTERS = {
    "international": lambda r, country: (
        r.vp_country != country and r.prefix_country == country
    ),
    "national": lambda r, country: (
        r.vp_country == country and r.prefix_country == country
    ),
    "outbound": lambda r, country: (
        r.vp_country == country and r.prefix_country != country
    ),
}


def build_world(kind: str, seed: int):
    if kind == "small":
        config = GeneratorConfig(
            profiles=small_profiles(), clique_homes=("US", "US", "SE", "JP")
        )
        return generate_world(config, seed=seed, name="small")
    if kind == "medium":
        return generate_world(seed=seed, name="medium")
    raise ValueError(f"unknown bench world {kind!r}")


def naive_ranking(
    result: PipelineResult, records: list[PathRecord], metric: str, country: str
) -> Ranking:
    """One (metric, country) ranking the pre-engine way: rebuild the
    view by a full scan of the record list, recompute every
    intermediate with the reference scorers."""
    spec = get_spec(metric)
    keep = _NAIVE_VIEW_FILTERS[spec.view_kind]
    view = [record for record in records if keep(record, country)]
    label = f"{metric}:{country}"
    trim = result.config.trim
    total = sum({record.prefix: record.addresses for record in view}.values())
    if spec.family == "cone":
        addresses = cone_addresses(view, result.oracle)
        return Ranking.from_scores(
            label, {asn: float(n) for asn, n in addresses.items()},
            {asn: n / total for asn, n in addresses.items()} if total else None,
            country,
        )
    if spec.family == "hegemony":
        scores = hegemony_scores(view, trim)
    else:
        scores = cti_scores(view, result.oracle, total, trim)
    return Ranking.from_scores(label, scores, scores, country)


def fresh_result(result: PipelineResult) -> PipelineResult:
    """The same pipeline products with cold engine caches, so the
    indexed sweep is timed from scratch (no warm index/suffix cache)."""
    return PipelineResult(
        result.world, result.config, result.outcome, result.ribs,
        result.geodb, result.prefix_geo, result.vp_geo, result.paths,
        result.oracle, result.inferred,
    )


def pick_countries(result: PipelineResult, want: int) -> list[str]:
    """Sweep countries: qualifying national views first, topped up with
    the biggest destination countries."""
    chosen = result.countries_with_national_view()[:want]
    if len(chosen) < want:
        by_addresses = sorted(
            result.country_addresses().items(), key=lambda kv: (-kv[1], kv[0])
        )
        for code, _ in by_addresses:
            if code not in chosen:
                chosen.append(code)
            if len(chosen) >= want:
                break
    return chosen[:want]


def usable_cpus() -> int:
    """CPUs this process may actually run on — ``sched_getaffinity``
    where available (cgroup/taskset-aware), ``cpu_count`` otherwise."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def stage_timings(tracer: Tracer) -> dict[str, float]:
    """Wall-clock per top-level pipeline stage, from a traced run."""
    root = next(
        record for record in tracer.spans if record.name == "pipeline"
    )
    stages: dict[str, float] = {}
    for record in tracer.spans:
        if record.parent_id == root.span_id:
            stages[record.name] = round(
                stages.get(record.name, 0.0) + record.dur_s, 4
            )
    return stages


def bench_world(kind: str, seed: int, countries_wanted: int) -> dict:
    world = build_world(kind, seed)

    t0 = time.perf_counter()
    result = run_pipeline(world, PipelineConfig(seed=seed))
    pipeline_cold_s = time.perf_counter() - t0

    # a separate traced serial run feeds the per-stage breakdown, so
    # the timed runs above/below stay tracer-free
    tracer = Tracer()
    run_pipeline(world, PipelineConfig(seed=seed), tracer=tracer)
    stages = stage_timings(tracer)
    stage_rss = dict(sorted(tracer.rss_peaks.items()))

    countries = pick_countries(result, countries_wanted)
    pairs = [(m, c) for m in SWEEP_METRICS for c in countries]

    # Best-of-3 on both sides: single-shot sweep timings are noisy
    # enough on small machines to swing the speedup across the floor.
    # The naive sweep starts from a record list, as before the engine.
    records = list(result.paths.records)
    sweep_naive_s = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        naive = {
            (metric, country): naive_ranking(result, records, metric, country)
            for metric, country in pairs
        }
        sweep_naive_s = min(sweep_naive_s, time.perf_counter() - t0)

    sweep_indexed_s = float("inf")
    for _ in range(3):
        cold = fresh_result(result)  # cold engine caches every repeat
        t0 = time.perf_counter()
        indexed = cold.rank_all(SWEEP_METRICS, countries)
        sweep_indexed_s = min(sweep_indexed_s, time.perf_counter() - t0)

    for key, ranking in naive.items():
        entries = [(e.asn, e.value, e.share) for e in ranking.entries]
        other = [(e.asn, e.value, e.share) for e in indexed[key].entries]
        if entries != other:
            raise AssertionError(f"indexed sweep diverged from naive on {key}")

    speedup = sweep_naive_s / sweep_indexed_s if sweep_indexed_s else float("inf")
    return {
        "records": len(result.paths),
        "countries": countries,
        "metrics": list(SWEEP_METRICS),
        "pairs": len(pairs),
        "pipeline_cold_s": round(pipeline_cold_s, 4),
        "pipeline_stages_s": stages,
        "peak_rss_bytes": stage_rss,
        "sweep_naive_s": round(sweep_naive_s, 4),
        "sweep_indexed_s": round(sweep_indexed_s, 4),
        "speedup_indexed_vs_naive": round(speedup, 2),
        "end_to_end_serial_s": round(pipeline_cold_s + sweep_naive_s, 4),
        "end_to_end_engine_s": round(pipeline_cold_s + sweep_indexed_s, 4),
    }


def bench_watch(seed: int) -> dict:
    """Watch-mode throughput: a 3-snapshot small-world stream, timed
    with the obs layer off (NULL_TRACER) and on (live Tracer). Events/s
    and the obs overhead ratio land in ``BENCH_pipeline.json`` so the
    monitoring engine's perf trajectory is tracked alongside the
    pipeline's."""
    from repro.monitor import WatchConfig, resolve_snapshots
    from repro.monitor.bench import measure_watch
    from repro.obs.trace import NULL_TRACER, Tracer

    specs = [f"small@{seed + offset}" for offset in range(3)]
    refs = resolve_snapshots(specs)
    config = WatchConfig(metrics=("CCI", "AHI"), countries=("AU",))

    plain = measure_watch(refs, config, NULL_TRACER)
    traced = measure_watch(refs, config, Tracer())
    if plain.run.jsonl() != traced.run.jsonl():
        raise AssertionError("tracer changed the watch event stream")

    ratio = traced.seconds / plain.seconds if plain.seconds else 1.0
    return {
        "snapshots": specs,
        "metrics": list(config.metrics),
        "countries": list(config.countries),
        "events": plain.events,
        "watch_obs_off_s": round(plain.seconds, 4),
        "watch_obs_on_s": round(traced.seconds, 4),
        "events_per_s_obs_off": round(plain.events_per_s, 1),
        "events_per_s_obs_on": round(traced.events_per_s, 1),
        "obs_overhead_ratio": round(ratio, 3),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--worlds", default="small,medium")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--countries", type=int, default=5)
    parser.add_argument(
        "--min-speedup", type=float, default=0.0,
        help="fail (exit 1) when the *last* world's indexed-vs-naive "
             "speedup is below this floor (0 disables)",
    )
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_pipeline.json")
    )
    args = parser.parse_args(argv)

    report = {
        "schema": "bench_pipeline/5",
        "cpus": os.cpu_count(),
        "cpus_usable": usable_cpus(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": args.seed,
        "worlds": {},
    }
    last_speedup = float("inf")
    for kind in [w for w in args.worlds.split(",") if w]:
        print(f"[{kind}] running …", flush=True)
        entry = bench_world(kind, args.seed, args.countries)
        report["worlds"][kind] = entry
        last_speedup = entry["speedup_indexed_vs_naive"]
        print(
            f"[{kind}] pipeline {entry['pipeline_cold_s']:.2f}s  "
            f"naive sweep {entry['sweep_naive_s']:.2f}s  "
            f"indexed sweep {entry['sweep_indexed_s']:.2f}s  "
            f"speedup {entry['speedup_indexed_vs_naive']:.1f}x "
            f"({entry['pairs']} pairs)",
            flush=True,
        )

    print("[watch] running …", flush=True)
    report["watch"] = bench_watch(args.seed)
    print(
        f"[watch] {report['watch']['events']} events  "
        f"{report['watch']['events_per_s_obs_off']:.0f}/s obs-off  "
        f"{report['watch']['events_per_s_obs_on']:.0f}/s obs-on  "
        f"overhead {report['watch']['obs_overhead_ratio']:.3f}x",
        flush=True,
    )

    failures: list[str] = []
    if args.min_speedup and last_speedup < args.min_speedup:
        failures.append(
            f"indexed sweep speedup {last_speedup:.2f}x is below the "
            f"{args.min_speedup:.2f}x floor"
        )

    out = Path(args.output)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
