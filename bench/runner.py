"""One run of one workload.

``measure`` gives the end-to-end metrics: every repetition in a fresh
child process with the program's tracing off, reported as medians.
``trace`` gives the per-layer metrics: an untraced reference child and
a traced child doing the same work, whose outputs must agree byte for
byte. Both check the outputs; a mismatch counts its operations as
failed.

Every process of a run is pinned to one CPU, and every end-to-end time
is its wall time put at reference speed by the run's
:class:`bench.speed.Sampler`: the pipeline and each set-up as a whole,
the sweep one ranking unit and serve traffic one request at a time.
The raw wall times are kept in the outcome's ``detail``.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from bench import serve, speed, stats
from bench.env import ROOT, dir_mb
from bench.procs import run_child

#: workload -> default seed
WORKLOADS = {
    "rank-medium": 42,
    "spill-medium": 0,
    "serve-medium": 42,
}
SERVE = "serve-medium"
#: batch repetitions per run: at least this many, more while the next
#: one is expected to finish within --seconds
MIN_REPS = 2
MAX_REPS = 10
#: set-up samples per batch run (set-up-only children top up the reps)
SETUP_SAMPLES = 5


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def pinned(workload: str, seed: int, smoke: bool) -> str | None:
    """The digest pinned for a default seed, if any."""
    if smoke:
        return None
    baseline = json.loads((ROOT / "bench" / "baseline.json").read_text())
    return baseline["digests"].get(workload, {}).get(str(seed))


@dataclass
class Context:
    """What every workload of one ``run`` shares."""

    scratch: Path
    smoke: bool
    sampler: speed.Sampler

    def seconds(self, interval: list[float]) -> float:
        return self.sampler.seconds(*interval)


@dataclass
class Outcome:
    workload: str
    seed: int
    trace: int
    metrics: dict
    attempted: int
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.failures and not self.failed

    def result_line(self) -> dict:
        """The last line of the benchmark's output: exactly the metrics
        ``BENCHMARK.json`` lists for this mode."""
        listed = spec()["per_layer" if self.trace else "end_to_end"]
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                m["name"]: {"value": self.metrics.get(m["name"], 0), "unit": m["unit"]}
                for m in listed
            },
        }


def scratch_dir(parent: Path, name: str) -> Path:
    path = parent / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _wall(interval: list[float]) -> float:
    return interval[1] - interval[0]


def measure(workload: str, seed: int, seconds: float, ctx: Context) -> Outcome:
    if workload == SERVE:
        return _measure_serve(seed, ctx)
    reps, rss, disk = [], [], []
    started = time.monotonic()
    while len(reps) < MAX_REPS:
        rep_started = time.monotonic()
        rep_dir = scratch_dir(ctx.scratch, f"rep{len(reps)}")
        data, rss_mb = run_child(
            "rep", workload, seed, ctx.smoke, "--scratch", str(rep_dir)
        )
        disk.append(dir_mb(rep_dir))
        shutil.rmtree(rep_dir)
        reps.append(data)
        rss.append(rss_mb)
        now = time.monotonic()
        if len(reps) >= (1 if ctx.smoke else MIN_REPS) and (
            now - started + (now - rep_started) > seconds
        ):
            break
    setups = [rep["intervals"]["setup"] for rep in reps]
    while len(setups) < SETUP_SAMPLES:
        data, _ = run_child("setup", workload, seed, ctx.smoke)
        setups.append(data["intervals"]["setup"])
    expected = pinned(workload, seed, ctx.smoke) or reps[0]["digest"]
    outcome = Outcome(workload, seed, 0, {}, attempted=0)
    for index, rep in enumerate(reps):
        outcome.attempted += len(rep["ops"])
        if rep["digest"] != expected:
            outcome.failed += len(rep["ops"])
            outcome.failures.append(
                f"rep {index}: digest {rep['digest']}, expected {expected}"
            )
    pipelines = [ctx.seconds(rep["intervals"]["pipeline"]) for rep in reps]
    sweeps = [sum(ctx.seconds(op) for op in rep["ops"]) for rep in reps]
    jobs = [p + s for p, s in zip(pipelines, sweeps)]
    per_op = [s * 1000.0 / len(rep["ops"]) for s, rep in zip(sweeps, reps)]
    setup_s = [ctx.seconds(interval) for interval in setups]
    outcome.metrics = {
        "setup_s": stats.median(setup_s),
        "job_s": stats.median(jobs),
        "op_ms": stats.median(per_op),
        "peak_rss_mb": stats.median(rss),
    }
    outcome.detail = {
        "reps": len(reps),
        "setup_s": stats.summarize(setup_s),
        "job_s": stats.summarize(jobs),
        "pipeline_s": stats.summarize(pipelines),
        "sweep_s": stats.summarize(sweeps),
        "wall_setup_s": stats.summarize([_wall(i) for i in setups]),
        "wall_job_s": stats.summarize([
            _wall(rep["intervals"]["pipeline"]) + _wall(rep["intervals"]["query"])
            for rep in reps
        ]),
        "op_latency_ms": stats.latency_summary(
            [_wall(op) * 1000.0 for rep in reps for op in rep["ops"]]
        ),
        "peak_rss_mb": stats.summarize(rss),
        "disk_mb": max(disk),
        "digest": expected,
    }
    return outcome


def trace(workload: str, seed: int, ctx: Context) -> Outcome:
    ref, _ = run_child(
        "rep", workload, seed, ctx.smoke,
        "--scratch", str(scratch_dir(ctx.scratch, "ref")),
    )
    measured = None
    if workload == SERVE:
        measured = _measure_serve(seed, ctx, reference=ref["texts"])
    traced, _ = run_child(
        "traced", workload, seed, ctx.smoke,
        "--scratch", str(scratch_dir(ctx.scratch, "traced")),
    )
    layers = traced["layers"]
    intervals = traced["intervals"]
    layers["bench.traced_ratio"] = (
        ctx.seconds(intervals["work"]) / ctx.seconds(ref["intervals"]["work"])
    )
    if "pipeline_trace1" in intervals:
        layers["obs.trace_overhead_ratio"] = (
            ctx.seconds(intervals["pipeline_trace1"])
            / ctx.seconds(intervals["pipeline_trace0"])
        )
    ops = len(ref["ops"])
    outcome = Outcome(workload, seed, 1, layers, attempted=2 * ops)
    outcome.failures += traced["failures"]
    if traced["digest"] != ref["digest"]:
        outcome.failed += ops
        outcome.failures.append(
            f"traced digest {traced['digest']} != untraced {ref['digest']}"
        )
    expected = pinned(workload, seed, ctx.smoke) if workload != SERVE else None
    if expected and ref["digest"] != expected:
        outcome.failed += ops
        outcome.failures.append(f"digest {ref['digest']}, expected {expected}")
    if measured is not None:
        outcome.attempted += measured.attempted
        outcome.failed += measured.failed
        outcome.failures += measured.failures
        layers.update(measured.detail["layers"])
        hit = layers["serve.service.hit_ms"]
        for name, probe in measured.detail["probes"].items():
            layers[f"serve.http.{name}"] = probe - hit
    outcome.detail = {"wall_s": _wall(intervals["work"]), "digest": traced["digest"]}
    return outcome


def _measure_serve(seed: int, ctx: Context, reference: dict | None = None) -> Outcome:
    plan, _ = run_child("plan", SERVE, seed, ctx.smoke)
    out = serve.run(
        plan, seed, "small" if ctx.smoke else "default",
        scratch_dir(ctx.scratch, "serve"), ctx.smoke, reference,
    )
    answers = out["answers"]
    rungs = out["rungs"]
    warm = rungs[0]
    cold = out["cold"]["ops"]
    outcome = Outcome(
        SERVE, seed, 0, {},
        attempted=len(cold) + sum(r.sent for r in rungs),
        failed=len(answers.failures), failures=answers.failures[:20],
    )
    expected = pinned(SERVE, seed, ctx.smoke)
    if expected and answers.digest() != expected:
        outcome.failed += len(plan["units"])
        outcome.failures.append(f"answers digest {answers.digest()}, expected {expected}")
    setup_s = [ctx.seconds(interval) for interval in out["setup"]]
    outcome.metrics = {
        "setup_s": stats.median(setup_s),
        "job_s": sum(ctx.seconds(op) for op in cold),
        "op_ms": stats.median([ctx.seconds(w) * 1000.0 for w in warm.windows]),
        "peak_rss_mb": max(out["rss_mb"]),
    }
    warm_summary = warm.summary()
    outcome.detail = {
        "setup_s": stats.summarize(setup_s),
        "wall_setup_s": stats.summarize([_wall(i) for i in out["setup"]]),
        "wall_job_s": sum(_wall(op) for op in cold),
        "cold_ms": out["cold"]["latency_ms"],
        "warm": warm_summary,
        "rungs": [r.summary() for r in rungs[1:]],
        "digest": answers.digest(),
    }
    if reference is not None:
        latency = warm_summary["latency_ms"]
        outcome.detail["layers"] = {
            "serve.warm_p95_ms": latency.get("tail", latency["p50"]),
            "serve.max_rate_rps": max([r.rate for r in rungs if r.passed], default=0.0),
            "serve.lateness_p99_ms": warm.lateness_p99_ms,
            "serve.store_mb": out["store_mb"],
            "serve.store.hit_ratio": out["hit_ratio"],
        }
        outcome.detail["probes"] = out["probes"]
    return outcome
