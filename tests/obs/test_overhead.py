"""Overhead guards: disabled-mode hooks must be near-free, and enabled
tracing cheap.

Each guard uses a generous bound so it never flakes, while still
catching any accidental allocation or real work sneaking onto the
disabled path, or an enabled tracer that doubles a pipeline run.
"""

import time

from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.obs.trace import NULL_SPAN, NULL_TRACER
from repro.topology.generator import GeneratorConfig, generate_world
from repro.topology.profiles import small_profiles


def small_world():
    config = GeneratorConfig(
        profiles=small_profiles(), clique_homes=("US", "US", "SE", "JP")
    )
    return generate_world(config, seed=0, name="small")


class TestNullPrimitivesAreCheap:
    N = 100_000

    def test_null_span_loop(self):
        # timing IS this test's subject: it measures the disabled-mode
        # span overhead itself, so the R002 clock discipline is lifted
        start = time.perf_counter()  # repro: noqa[R002]
        for _ in range(self.N):
            with NULL_TRACER.span("hot"):
                pass
        elapsed = time.perf_counter() - start  # repro: noqa[R002]
        # ~3 attribute lookups + 2 method calls per iteration; anything
        # near 10 µs/call means real work leaked onto the disabled path.
        assert elapsed < self.N * 10e-6

    def test_null_span_allocates_nothing(self):
        spans = {id(NULL_TRACER.span("x", a=1)) for _ in range(100)}
        assert spans == {id(NULL_SPAN)}

    def test_null_metrics_loop(self):
        counter = NULL_TRACER.metrics.counter("hot.counter")
        hist = NULL_TRACER.metrics.histogram("hot.hist")
        # timing IS this test's subject (see test_null_span_loop)
        start = time.perf_counter()  # repro: noqa[R002]
        for index in range(self.N):
            counter.inc()
            hist.observe(index)
        elapsed = time.perf_counter() - start  # repro: noqa[R002]
        assert elapsed < self.N * 10e-6


class TestDisabledModeIsTransparent:
    def test_results_identical_with_and_without_trace(self):
        world = small_world()
        plain = run_pipeline(world, PipelineConfig(seed=3))
        traced = run_pipeline(world, PipelineConfig(seed=3, trace=True))

        assert plain.trace is None
        assert traced.trace is not None

        assert plain.paths.report.rejected == traced.paths.report.rejected
        assert plain.paths.report.accepted == traced.paths.report.accepted
        for metric, country in (("AHN", "AU"), ("CCI", "AU"), ("AHG", None)):
            left = plain.ranking(metric, country)
            right = traced.ranking(metric, country)
            assert [(e.asn, e.value) for e in left.entries] == [
                (e.asn, e.value) for e in right.entries
            ]

    def test_traced_runs_are_seed_stable(self):
        world = small_world()
        shapes = []
        for _ in range(2):
            result = run_pipeline(world, PipelineConfig(seed=3, trace=True))
            result.ranking("AHN", "AU")
            tracer = result.trace
            # the obs.memory.* gauges measure the process, not the run:
            # the tracer keeps them out of the determinism contract
            metrics = {
                name: value for name, value in tracer.metrics.snapshot().items()
                if not name.startswith("obs.memory.")
            }
            shapes.append((
                [(r.span_id, r.parent_id, r.name) for r in tracer.spans],
                metrics,
            ))
        assert shapes[0] == shapes[1]


class TestEnabledTracingIsCheap:
    @staticmethod
    def best_run_s(world, trace: bool) -> float:
        """Best-of-3 wall time of one full pipeline run (best-of
        suppresses scheduler noise better than a mean)."""
        best = float("inf")
        for _ in range(3):
            # timing IS this test's subject (see test_null_span_loop)
            start = time.perf_counter()  # repro: noqa[R002]
            run_pipeline(world, PipelineConfig(seed=0, trace=trace))
            best = min(best, time.perf_counter() - start)  # repro: noqa[R002]
        return best

    def test_traced_pipeline_under_twice_untraced(self):
        world = small_world()
        run_pipeline(world, PipelineConfig(seed=0))  # warm caches
        disabled = self.best_run_s(world, trace=False)
        enabled = self.best_run_s(world, trace=True)
        # enabled tracing records ~30 spans and a few dozen metric
        # updates per run: well under 2x on any machine
        assert enabled / disabled < 2.0
