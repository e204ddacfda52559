PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint lint-wp lint-sarif faults bench bench-smoke bench-serve bench-large bench-large-smoke bench-e2e-smoke watch-smoke serve-smoke profile

## Default verification: static analysis first (per-file and
## whole-program tiers, then the R011/R012 self-check and the SARIF
## artifact), then the test suite (which includes the fault-injection
## suite), then the benchmark's own self-tests (bench/ sits outside
## the suite's testpaths), then the fault suite once more on its own
## so a recovery regression is named explicitly, then the watch smoke
## (monitoring engine end-to-end + event schema), then the serve smoke
## (daemon end-to-end over a real socket + warm-hit floor), then the
## benchmark's smoke run (every workload and both store backends with
## their output checks), then the out-of-core smoke (spill-backed
## pipeline + RSS gate at reduced scale).
test: lint lint-wp lint-sarif
	$(PYTHON) -m pytest -x -q
	$(PYTHON) -m pytest bench -q
	$(MAKE) faults
	$(MAKE) watch-smoke
	$(MAKE) serve-smoke
	$(MAKE) bench-e2e-smoke
	$(MAKE) bench-large-smoke

## Fault-injection suite: deterministic mid-sweep crashes and
## corrupted dump lines, each required to recover to byte-identical
## output (DESIGN.md section 6), plus spill recovery: a
## torn ingestion -- torn at the middle of the input, exactly at a
## window boundary and mid-window (TestCrashResume, which checks each
## torn run left a checkpoint), and at random points
## (test_column_builder.py) -- resumes to byte-identical spill files,
## and a damaged spill fails with a typed error on open or resume.
## Last, the MRT boundary suite (tests/io/test_mrt_boundary.py):
## +-Infinity, NaN, huge and over-long integers, 100,000-deep nesting,
## numeric peer IPs, out-of-range ASNs, dayless headers, and dropped,
## retyped and truncated fields -- strict ingestion raises only
## MrtFormatError, lenient ingestion quarantines the line and yields
## only well-formed announcements.
faults:
	$(PYTHON) -m pytest tests/resilience -q
	$(PYTHON) -m pytest -q tests/perf/test_spill.py::TestCrashResume \
		tests/perf/test_spill.py::TestDamagedSpill \
		tests/perf/test_spill.py::TestDamagedResume \
		tests/perf/test_column_builder.py
	$(PYTHON) -m pytest -q tests/io/test_mrt_boundary.py

## Static analysis gate: the repro-lint invariant checker over the
## whole source + test tree (per-file rules R001-R008 plus the
## whole-program tier R011-R012, findings vs the checked-in
## lint-baseline.json, runtime guard of 5s so it stays cheap enough to
## run always), then mypy when available (lenient globally, strict for
## repro.perf and repro.core -- see [tool.mypy] in pyproject.toml).
lint:
	$(PYTHON) -m repro.lint src tests --stats --max-seconds 5
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy src/repro; \
	else \
		echo "mypy not installed -- type check skipped"; \
	fi

## Whole-program self-check: just the call-graph rules (R011 memo
## coherence, R012 spec purity) over the library source, with no
## baseline — asserts the tree carries zero unbaselined whole-program
## findings.
lint-wp:
	$(PYTHON) -m repro.lint src/repro --no-baseline \
		--select R011,R012 --stats --max-seconds 5

## SARIF artifact for CI annotation tooling: the full rule set over
## src + tests as a SARIF 2.1.0 log at benchmarks/output/lint.sarif.
## Exit status is the lint verdict, same as `make lint`.
lint-sarif:
	mkdir -p benchmarks/output
	$(PYTHON) -m repro.lint src tests --format sarif \
		--max-seconds 5 > benchmarks/output/lint.sarif

## Full scaling benchmark (small + medium worlds); writes
## BENCH_pipeline.json at the repo root and fails below the 2.5x
## indexed-vs-naive floor on the medium world.
bench:
	$(PYTHON) benchmarks/bench_pipeline_scaling.py --min-speedup 2.5

## Serving benchmark (medium world): cold-vs-warm /rank latency, QPS,
## and the store hit rate through a real daemon on an ephemeral port;
## writes BENCH_serve.json at the repo root and fails when a warm hit
## is not >= 100x faster than a cold compute.
bench-serve:
	$(PYTHON) benchmarks/bench_serve.py --warm-floor 100

## Out-of-core gate, full scale: the catalog's `large` tier (5M+ RIB
## records) through the mmap spill backend, ranked under a peak-RSS
## ceiling and a record-count floor; merges a `large_tier` entry into
## BENCH_pipeline.json. Takes minutes — the smoke variant below is the
## per-change gate.
bench-large:
	$(PYTHON) benchmarks/bench_large_tier.py

## Out-of-core gate, smoke scale: default-world volume through the
## same spill path and gates (reduced floors), fast enough for `make
## test`. Writes its entry to benchmarks/output/BENCH_large_smoke.json
## so the checked-in BENCH_pipeline.json stays the full-tier record.
bench-large-smoke:
	mkdir -p benchmarks/output
	$(PYTHON) benchmarks/bench_large_tier.py --smoke \
		--output benchmarks/output/BENCH_large_smoke.json

## End-to-end benchmark smoke: `python -m bench run --smoke` runs all
## three workloads (rank, spill, serve) on the small world, untraced and
## traced; exits 1 on any wrong output (a digest that differs between
## traced and untraced runs, a serve text mismatch).
bench-e2e-smoke:
	$(PYTHON) -m bench run --smoke

## Quick perf gate: small world under a time ceiling plus the
## indexed-vs-naive floor (see benchmarks/smoke.sh); writes
## benchmarks/output/BENCH_smoke.json.
bench-smoke:
	sh benchmarks/smoke.sh

## Hotspot profile: cProfile over the pipeline + ranking sweep, printed
## as the obs stage report followed by the pstats top-N tables; writes
## benchmarks/output/profile.txt.
profile:
	$(PYTHON) benchmarks/profile_pipeline.py

## Monitoring gate: 3-snapshot small-world watch run under a time
## ceiling + schema check of the emitted event stream (see
## benchmarks/watch_smoke.sh); writes benchmarks/output/watch_smoke.jsonl.
watch-smoke:
	sh benchmarks/watch_smoke.sh

## Serving gate: a real repro-serve daemon on the small world under a
## time ceiling, driven cold then warm; every response's `source` is
## verified and warm hits must not lose to cold computes (see
## benchmarks/serve_smoke.sh); writes benchmarks/output/BENCH_serve_smoke.json.
serve-smoke:
	sh benchmarks/serve_smoke.sh
