PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint lint-sarif faults serve-dev drift examples bench-serve bench-large bench-large-smoke bench-e2e-smoke serve-smoke

## Default verification: static analysis first (the lint gate, then
## the SARIF artifact), then the test suite (which includes the
## fault-injection suite and the behavioural checks of the invariants
## no per-file rule can see: tests/topology/test_graph_version.py and
## tests/core/test_compute_purity.py), then the benchmark's own
## self-tests (bench/ sits outside the suite's testpaths), then the
## paper-output drift check, then the eight example scripts, then the
## fault suite once more on its own so a recovery regression is named
## explicitly, then the serve suite under `-X dev` (a resource left
## open or an exception lost on a thread fails it), then the serve
## smoke (daemon end-to-end over a real
## socket + warm-hit floor), then the benchmark's smoke run (every
## workload and both store backends with their output checks), then
## the out-of-core smoke (spill-backed pipeline + RSS and record gates
## at reduced scale, read from the run's trace).
test: lint lint-sarif
	$(PYTHON) -m pytest -x -q
	$(PYTHON) -m pytest bench -q
	$(MAKE) drift
	$(MAKE) examples
	$(MAKE) faults
	$(MAKE) serve-dev
	$(MAKE) serve-smoke
	$(MAKE) bench-e2e-smoke
	$(MAKE) bench-large-smoke

## Fault-injection suite: deterministic mid-sweep crashes (a store
## that raises after banking two units) and damaged banked rankings
## (truncated, retyped, moved under another unit), each required to
## recover to byte-identical output (DESIGN.md section 6), plus spill
## recovery: a torn ingestion -- torn at the middle of the input,
## exactly at a window boundary and mid-window (TestCrashResume, which
## checks each torn run left a checkpoint), and at random points
## (test_column_builder.py) -- resumes to byte-identical spill files,
## a spill directory is reopened or resumed only for the world and
## config that wrote it (TestSpillKey: another key, or none, is a
## SpillFormatError, exit status 2 from `repro-rank`), and a damaged
## spill (hand-picked damage, and generated byte flips,
## truncations, retyped fields, Table-1 counts that are not
## non-negative ints adding up, and out-of-range column values) fails
## with a typed error on open or resume, never with another one later;
## and a damaged release (byte flips, truncation, retyped, out-of-range
## and dropped fields in a released paths.jsonl) either replays or
## fails with a ReplayError, exit status 2 from `repro-rank replay`.
faults:
	$(PYTHON) -m pytest tests/resilience -q
	$(PYTHON) -m pytest -q tests/perf/test_spill.py::TestCrashResume \
		tests/perf/test_spill.py::TestSpillKey \
		tests/perf/test_spill.py::TestDamagedSpill \
		tests/perf/test_spill.py::TestDamagedResume \
		tests/perf/test_column_builder.py \
		tests/io/test_replay.py::TestDamagedRelease

## The serve suite in the interpreter's development mode (`-X dev`:
## ResourceWarning for every file and socket never closed), failing on
## any ResourceWarning, on an exception raised where nothing could
## catch it (a finalizer) and on an exception that ended a thread --
## so a store left open, a compute thread left running or a failure
## dropped on one fails it.
serve-dev:
	$(PYTHON) -X dev -m pytest -q tests/serve \
		-W error::ResourceWarning \
		-W error::pytest.PytestUnraisableExceptionWarning \
		-W error::pytest.PytestUnhandledThreadExceptionWarning

## Paper-output drift check: rerun the 30 paper benchmarks (tables,
## figures, ablations, extensions -- the only tests under benchmarks/)
## untimed, then fail when a tracked file under benchmarks/output/
## differs from the checked-in copy -- no reproduced table or figure
## can go stale unnoticed. The untracked files there (lint.sarif,
## pipeline_trace.json, the serve records) are not compared.
drift:
	$(PYTHON) -m pytest -q --benchmark-disable benchmarks
	git diff --exit-code -- benchmarks/output

## The example scripts, each run once (stdout discarded; any failure
## stops the target), so a public name an example imports cannot go
## away unnoticed. release_dataset.py writes its bundle into a
## temporary directory, removed afterwards, not into ./release.
examples:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for script in examples/*.py; do \
		echo "$$script"; \
		case $$script in \
		*/release_dataset.py) $(PYTHON) $$script "$$tmp/release" > /dev/null ;; \
		*) $(PYTHON) $$script > /dev/null ;; \
		esac || exit 1; \
	done

## Static analysis gate: the repro-lint invariant checker over the
## whole source + test tree (rules R001-R008, each file parsed and
## walked once; a finding is silenced only by an inline
## `# repro: noqa[R00x]` on its line; runtime guard of 3s so it stays
## cheap enough to run always and a rule that brings back a second walk
## per file fails it), then mypy when
## available (lenient globally, strict for repro.perf and repro.core --
## see [tool.mypy] in pyproject.toml).
lint:
	$(PYTHON) -m repro.lint src tests --stats --max-seconds 3
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy src/repro; \
	else \
		echo "mypy not installed -- type check skipped"; \
	fi

## SARIF artifact for CI annotation tooling: the full rule set over
## src + tests as a SARIF 2.1.0 log at benchmarks/output/lint.sarif.
## Exit status is the lint verdict, same as `make lint`.
lint-sarif:
	mkdir -p benchmarks/output
	$(PYTHON) -m repro.lint src tests --format sarif \
		--max-seconds 3 > benchmarks/output/lint.sarif

## Serving benchmark (medium world): cold-vs-warm /rank latency, QPS,
## and the store hit rate through a real daemon on an ephemeral port;
## writes benchmarks/output/BENCH_serve.json (untracked) and fails when
## a warm hit is not >= 100x faster than a cold compute.
bench-serve:
	$(PYTHON) benchmarks/bench_serve.py --warm-floor 100

## Out-of-core gate, full scale: the catalog's `large` tier (5M+ RIB
## records) through the mmap spill backend, ranked under a peak-RSS
## ceiling and a record-count floor, both read from the run's own
## trace (the `ribs` span's records, the tracer's peak-RSS gauge);
## prints the stage report and writes nothing. The smoke variant below
## is the per-change gate.
bench-large:
	$(PYTHON) benchmarks/bench_large_tier.py

## Out-of-core gate, smoke scale: default-world volume through the
## same spill path and gates (reduced bounds), fast enough for `make
## test`.
bench-large-smoke:
	$(PYTHON) benchmarks/bench_large_tier.py --smoke

## End-to-end benchmark smoke: `python -m bench run --smoke` runs all
## three workloads (rank, spill, serve) on the small world, untraced and
## traced; exits 1 on any wrong output (a digest that differs between
## traced and untraced runs, a serve text mismatch).
bench-e2e-smoke:
	$(PYTHON) -m bench run --smoke

## Serving gate: a real repro-serve daemon on the small world under a
## time ceiling, driven cold then warm; every response's `source` is
## verified and warm hits must not lose to cold computes (see
## benchmarks/serve_smoke.sh); writes benchmarks/output/BENCH_serve_smoke.json.
serve-smoke:
	sh benchmarks/serve_smoke.sh
