"""Out-of-core gate: the ``large`` tier must rank under a bounded RSS.

Runs the pipeline once on the catalog's ``large`` world (5M+ RIB
records at the default scale factors) through the mmap spill backend
(``store_backend="mmap"``), sweeps a cross-family set of rankings, and
reads every number it checks from the run's own trace:

* **record floor** — the ``ribs`` span's ``records`` (the deduplicated
  RIB records the series carries) must be at least the floor, so the
  tier is actually large, not silently shrunken by a profile
  regression;
* **RSS ceiling** — the tracer's ``obs.memory.peak_rss_bytes`` gauge
  (the process peak, sampled at every span close through the end of
  the sweep) must stay under the ceiling. This is the out-of-core
  contract: the record set never lives in memory, so peak RSS is
  bounded by the streaming working set (interning tables, propagation
  state, bucket arrays), not by record volume.

The times printed are the ``pipeline`` and ``sweep`` spans, and the
tracer's stage report follows them with the per-stage RSS peaks. The
harness reads no clock and writes no file.

``--smoke`` swaps in an unscaled profile set (the default world's
shape through the same spill path) with reduced bounds — the mechanism
check ``make test`` runs on every change; ``make bench-large`` runs the
real tier.

Run:  PYTHONPATH=src python benchmarks/bench_large_tier.py [--smoke]
"""

from __future__ import annotations

import argparse
import sys

from repro import (
    GeneratorConfig,
    PipelineConfig,
    Tracer,
    generate_world,
    run_pipeline,
    stage_report,
)
from repro.topology.profiles import large_profiles

#: one metric per family, over the paper's case-study countries — wide
#: enough to touch every engine path (index, suffix cache, cones,
#: hegemony betweenness, CTI) without a full 60-country sweep
SWEEP_METRICS = ("CCI", "AHN", "AHC", "CTI")
SWEEP_COUNTRIES = ("US", "GB", "NL", "JP", "BR")

#: full-tier bounds: the tier definition (>= 5M records) and a ceiling
#: ~35% above the 1.26GB peak measured at seed 0 when the gate was set,
#: so real regressions (records materializing in RAM would add
#: gigabytes) trip it while allocator noise does not
FULL_MIN_RECORDS = 5_000_000
FULL_RSS_CEILING = 1_700_000_000

#: smoke bounds: default-world volume through the same spill machinery
#: (the ceiling leaves over 2.5x the 0.31GB peak measured when it was
#: set, for interpreter noise across hosts)
SMOKE_MIN_RECORDS = 200_000
SMOKE_RSS_CEILING = 800_000_000


def traced_run(seed: int, smoke: bool) -> Tracer:
    """One spill-backed pipeline run plus the sweep, under one tracer."""
    if smoke:
        profiles = large_profiles(vp_scale=1, block_scale=1)
        name = "large-smoke"
    else:
        profiles = large_profiles()
        name = "large"
    world = generate_world(
        GeneratorConfig(profiles=profiles), seed=seed, name=name
    )
    tracer = Tracer()
    result = run_pipeline(
        world, PipelineConfig(seed=seed, store_backend="mmap"), tracer=tracer
    )
    rankings = result.rank_all(SWEEP_METRICS, SWEEP_COUNTRIES)
    result.close()
    if not rankings:
        raise AssertionError("large-tier sweep produced no rankings")
    return tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="unscaled profiles through the same spill path, with "
             "reduced bounds (the make-test mode)",
    )
    args = parser.parse_args(argv)
    mode = "smoke" if args.smoke else "full"
    min_records = SMOKE_MIN_RECORDS if args.smoke else FULL_MIN_RECORDS
    rss_ceiling = SMOKE_RSS_CEILING if args.smoke else FULL_RSS_CEILING

    print(f"[large:{mode}] running …", flush=True)
    tracer = traced_run(args.seed, args.smoke)
    [ribs] = tracer.find("ribs")
    [pipeline] = tracer.find("pipeline")
    [sweep] = tracer.find("sweep")
    records = ribs.attrs["records"]
    peak = tracer.metrics.gauges()["obs.memory.peak_rss_bytes"]
    print(stage_report(tracer, title=f"large:{mode} stage report"))

    failures: list[str] = []
    if records < min_records:
        failures.append(
            f"ribs span carries {records} records, below the "
            f"{min_records} floor"
        )
    if peak > rss_ceiling:
        failures.append(
            f"peak RSS {peak:.0f} exceeds the {rss_ceiling} ceiling"
        )
    print(
        f"[large:{mode}] {records} records  "
        f"pipeline {pipeline.dur_s:.1f}s  sweep {sweep.dur_s:.1f}s  "
        f"peak RSS {peak / 2**30:.2f}GiB "
        f"(ceiling {rss_ceiling / 2**30:.2f}GiB)  "
        f"gate {'failed' if failures else 'passed'}",
        flush=True,
    )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
