#!/bin/sh
# Perf smoke: the scaling benchmark on the small world under a hard
# time ceiling. Fails loudly when the run regresses past the ceiling
# (or the benchmark itself reports a speedup below its floor).
#
# Usage:  sh benchmarks/smoke.sh [ceiling-seconds]
#
# The small world finishes in well under a second of measured work; a
# generous ceiling keeps the gate immune to interpreter start-up noise
# while still catching order-of-magnitude pipeline regressions. The
# indexed-vs-naive floor is left at 1.0 here: small-world sweeps are
# ~10 ms, too noisy for a sharper ratio — `make bench` runs the medium
# world with the real 3x floor.
set -eu

CEILING="${1:-120}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
OUT="$ROOT/benchmarks/output"
mkdir -p "$OUT"

status=0
timeout "$CEILING" env PYTHONPATH="$ROOT/src" python \
    "$ROOT/benchmarks/bench_pipeline_scaling.py" \
    --worlds small --min-speedup 1.0 \
    --output "$OUT/BENCH_smoke.json" || status=$?

if [ "$status" -eq 124 ]; then
    echo "FAIL: bench smoke exceeded the ${CEILING}s ceiling" >&2
    exit 1
elif [ "$status" -ne 0 ]; then
    echo "FAIL: bench smoke exited with status $status" >&2
    exit "$status"
fi
echo "bench smoke OK (ceiling ${CEILING}s)"
