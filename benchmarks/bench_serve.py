"""Serving-layer benchmark: latency, QPS, and the warm-hit floor.

Starts a real ``repro-serve`` daemon (ephemeral port, in-process
``ThreadingHTTPServer``) over one pipeline run, then drives it with a
stdlib HTTP client in two phases:

* **cold** — the first ``/rank`` per registry metric: every response
  must report ``source: computed`` (store miss → registry compute →
  banked);
* **warm** — ``--rounds`` round-robin repeats of the same queries:
  every response must report ``source: store``, i.e. answered from the
  artifact store without re-running propagation, view construction, or
  metric math.

Client-side p50/p99 latency, throughput, and the store hit rate land
in ``benchmarks/output/BENCH_serve.json``, an untracked record
(override with ``--output``). The gate:
``--warm-floor R`` fails (exit 1) when cold-mean / warm-p50 falls
below R — the "a warm hit must be at least R× faster than a cold
compute" contract. The cold side is the *mean*, not the p50: the
first cold query pays the view/cone/suffix construction that later
cold metrics then share (cross-metric caches), so the median cold
query is artificially cheap — the mean charges that warm-up to the
cold side, where it belongs. A wrong ``source`` on any response is a
correctness failure and exits 1 regardless of timing.

Run:  PYTHONPATH=src python benchmarks/bench_serve.py
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
import urllib.request
from pathlib import Path

from repro import (
    GeneratorConfig,
    PipelineConfig,
    generate_world,
    run_pipeline,
    small_profiles,
)
from repro.core.registry import iter_specs
from repro.serve import ArtifactStore, RankingServer, RankingService, store_key

REPO_ROOT = Path(__file__).resolve().parent.parent


def build_world(kind: str, seed: int):
    if kind == "small":
        config = GeneratorConfig(
            profiles=small_profiles(), clique_homes=("US", "US", "SE", "JP")
        )
        return generate_world(config, seed=seed, name="small")
    if kind == "medium":
        return generate_world(seed=seed, name="medium")
    raise ValueError(f"unknown bench world {kind!r}")


def percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def phase_stats(latencies_ms: list[float], total_s: float) -> dict:
    return {
        "requests": len(latencies_ms),
        "p50_ms": round(percentile(latencies_ms, 0.50), 3),
        "p99_ms": round(percentile(latencies_ms, 0.99), 3),
        "mean_ms": round(sum(latencies_ms) / len(latencies_ms), 3),
        "qps": round(len(latencies_ms) / total_s, 1) if total_s else None,
        "total_s": round(total_s, 4),
    }


def drive(base: str, paths: list[str], expect_source: str) -> list[float]:
    """Issue every query once; return per-request latencies (ms).

    Raises ``AssertionError`` when a ``/rank`` response's ``source``
    is not what the phase demands — a wrong source means the store or
    the daemon is lying about where the answer came from.
    """
    latencies: list[float] = []
    for path in paths:
        t0 = time.perf_counter()
        with urllib.request.urlopen(base + path) as response:
            payload = json.loads(response.read())
        latencies.append((time.perf_counter() - t0) * 1000.0)
        source = payload.get("source")
        if source != expect_source:
            raise AssertionError(
                f"{path}: expected source={expect_source!r}, got {source!r}"
            )
    return latencies


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--world", default="medium",
                        choices=("small", "medium"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--rounds", type=int, default=20,
        help="warm round-robin repeats of the full query set",
    )
    parser.add_argument(
        "--warm-floor", type=float, default=0.0,
        help="fail (exit 1) when cold-p50/warm-p50 is below this "
             "ratio (0 disables)",
    )
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "benchmarks" / "output" / "BENCH_serve.json"),
    )
    args = parser.parse_args(argv)

    world = build_world(args.world, args.seed)
    print(f"[{args.world}] pipeline …", flush=True)
    t0 = time.perf_counter()
    result = run_pipeline(world, PipelineConfig(seed=args.seed))
    startup_s = time.perf_counter() - t0

    country = (result.countries_with_national_view() or ["US"])[0]
    queries = []
    for spec in iter_specs():
        path = f"/rank?metric={spec.name}"
        if spec.needs_country:
            path += f"&country={country}"
        queries.append(path)

    store = ArtifactStore(store_key(world, result.config))
    service = RankingService(result, store)
    server = RankingServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.port}"

    try:
        print(f"[cold] {len(queries)} queries …", flush=True)
        t0 = time.perf_counter()
        cold = drive(base, queries, "computed")
        cold_total = time.perf_counter() - t0

        print(f"[warm] {args.rounds} rounds …", flush=True)
        t0 = time.perf_counter()
        warm: list[float] = []
        for _ in range(args.rounds):
            warm.extend(drive(base, queries, "store"))
        warm_total = time.perf_counter() - t0
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        result.close()

    cold_stats = phase_stats(cold, cold_total)
    warm_stats = phase_stats(warm, warm_total)
    warm_speedup = (
        cold_stats["mean_ms"] / warm_stats["p50_ms"]
        if warm_stats["p50_ms"] else float("inf")
    )
    lookups = store.hits + store.misses
    gate: dict = {"floor": args.warm_floor}
    if not args.warm_floor:
        gate["status"] = "disabled"
    else:
        gate["measured"] = round(warm_speedup, 2)
        gate["status"] = (
            "passed" if warm_speedup >= args.warm_floor else "failed"
        )

    report = {
        "schema": "bench_serve/1",
        "world": args.world,
        "seed": args.seed,
        "country": country,
        "fingerprint": service.fingerprint,
        "queries": len(queries),
        "startup_s": round(startup_s, 4),
        "cold": cold_stats,
        "warm": warm_stats,
        "warm_speedup": round(warm_speedup, 2),
        "store": {
            "hits": store.hits,
            "misses": store.misses,
            "entries": len(store),
            "hit_rate": round(store.hits / lookups, 4) if lookups else None,
        },
        "gate": gate,
    }
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")

    print(
        f"[serve] cold p50 {cold_stats['p50_ms']:.1f}ms  "
        f"warm p50 {warm_stats['p50_ms']:.2f}ms  "
        f"warm p99 {warm_stats['p99_ms']:.2f}ms  "
        f"{warm_stats['qps']:.0f} qps  "
        f"hit rate {report['store']['hit_rate']:.2%}  "
        f"speedup {warm_speedup:.0f}x",
        flush=True,
    )
    print(f"wrote {out}")

    if gate["status"] == "failed":
        print(
            f"FAIL: warm-hit speedup {warm_speedup:.2f}x is below the "
            f"{args.warm_floor:.2f}x floor", file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
