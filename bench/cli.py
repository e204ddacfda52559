"""``python -m bench``: the one benchmark command.

``run`` measures named workloads and checks their outputs; the last
line of its output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``). ``--trace 0`` reports the end-to-end metrics
of ``BENCHMARK.json``, ``--trace 1`` its per-layer metrics; without
``--trace`` every selected workload gets both, and the last line sums
up. ``compare`` sets two files written with ``run --out`` side by
side.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

from bench import env

SMOKE_SECONDS = 1.0


def _parser() -> argparse.ArgumentParser:
    from bench.runner import WORKLOADS

    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="measure workloads")
    run.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    run.add_argument("--seed", type=int, default=None,
                     help="input seed (default: each workload's own)")
    run.add_argument("--seconds", type=float, default=None,
                     help="measuring time per run (default: BENCHMARK.json)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=None,
                     help="0: end-to-end metrics only, 1: per-layer only")
    run.add_argument("--smoke", action="store_true",
                     help="every workload on the small world, one repetition")
    run.add_argument("--out", type=Path, default=None,
                     help="append each run's full record (JSONL) to this file")

    compare = commands.add_parser("compare", help="compare two --out files")
    compare.add_argument("base", type=Path)
    compare.add_argument("new", type=Path)

    child = commands.add_parser("child", help=argparse.SUPPRESS)
    child.add_argument("op")
    child.add_argument("--workload", required=True)
    child.add_argument("--seed", type=int, required=True)
    child.add_argument("--smoke", action="store_true")
    child.add_argument("--spawned", type=float, required=True)
    child.add_argument("--scratch", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "child":
            from bench import child

            return child.main(args)
        env.build()
        if args.command == "compare":
            from bench.compare import compare
            from bench.runner import spec

            return compare(args.base, args.new, spec())
        return _run(args)
    except env.SourceMissing as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2


def _run(args) -> int:
    from bench import runner, speed
    from bench.procs import ChildFailed

    spec = runner.spec()
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else spec["run_seconds"])
    names = list(runner.WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [args.trace] if args.trace is not None else [0, 1]
    scratch = env.OUT / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    outcomes = []
    # a terminated run still stops its sampler and daemons on the way out
    signal.signal(signal.SIGTERM, _exit_on_signal)
    cpu = speed.measured_cpu()
    print(f"host: {json.dumps({**env.provenance(), 'measured_cpu': cpu})}")
    speed.pin(cpu)
    sampler = speed.Sampler(scratch / "speed.log", env.child_env(), env.ROOT)
    try:
        ctx = runner.Context(scratch, args.smoke, sampler)
        for name in names:
            seed = runner.WORKLOADS[name] if args.seed is None else args.seed
            for mode in modes:
                if mode:
                    outcome = runner.trace(name, seed, ctx)
                else:
                    outcome = runner.measure(name, seed, seconds, ctx)
                _print(outcome, spec)
                if args.out is not None:
                    _append(args.out, outcome)
                outcomes.append(outcome)
    except ChildFailed as error:
        print(f"bench: {error}", file=sys.stderr)
        return 1
    finally:
        sampler.close()
        shutil.rmtree(scratch, ignore_errors=True)
    if len(outcomes) == 1:
        line = outcomes[0].result_line()
    else:
        line = {
            "correct": all(o.correct for o in outcomes),
            "attempted": sum(o.attempted for o in outcomes),
            "failed": sum(o.failed for o in outcomes),
            "metrics": {
                f"{o.workload}/{name}": value
                for o in outcomes if not o.trace
                for name, value in o.result_line()["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def _exit_on_signal(signum, frame) -> None:
    raise SystemExit(128 + signum)


def _print(outcome, spec: dict) -> None:
    mode = "per-layer (traced)" if outcome.trace else "end-to-end"
    print(f"== {outcome.workload} seed={outcome.seed} {mode}: "
          f"{outcome.attempted} ops, {outcome.failed} failed ==")
    for metric in spec["per_layer" if outcome.trace else "end_to_end"]:
        value = outcome.metrics.get(metric["name"], 0)
        print(f"  {metric['name']:<34} {value:>14.6g} {metric['unit']}")
    for name, value in outcome.detail.items():
        if isinstance(value, dict) and "median" in value:
            print(f"  {name:<34} median {value['median']:.6g} "
                  f"[q1 {value['q1']:.6g}, q3 {value['q3']:.6g}] n={value['n']}")
        elif name in ("op_latency_ms", "cold_ms", "reps", "disk_mb", "digest", "wall_job_s"):
            print(f"  {name:<34} {value}")
    for failure in outcome.failures:
        print(f"  FAILED: {failure}")


def _append(path: Path, outcome) -> None:
    record = {
        "workload": outcome.workload, "seed": outcome.seed,
        "trace": outcome.trace, "correct": outcome.correct,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "metrics": outcome.metrics, "failures": outcome.failures,
        "detail": outcome.detail, "provenance": env.provenance(),
    }
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
