"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures. Worlds
and pipelines are expensive, so they are built once per session; the
benchmarked callable is the analysis step itself. Every benchmark also
writes its rendered table/series to ``benchmarks/output/`` so a run
leaves the full set of reproduced artifacts behind.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import PipelineConfig, generate_world, run_pipeline
from repro.topology.paper_world import (
    SNAPSHOT_2021,
    SNAPSHOT_2023,
    build_paper_world,
    paper_as_names,
)

OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def paper2021():
    """Pipeline result on the curated April-2021 world."""
    return run_pipeline(build_paper_world(SNAPSHOT_2021))


@pytest.fixture(scope="session")
def paper2023():
    """Pipeline result on the curated March-2023 world."""
    return run_pipeline(build_paper_world(SNAPSHOT_2023))


@pytest.fixture(scope="session")
def default_result():
    """Pipeline result on the generated ~1000-AS world (stability work)."""
    return run_pipeline(generate_world(seed=42, name="default"))


@pytest.fixture(scope="session")
def names():
    """ASN → display name covering curated and generated ASes."""
    return paper_as_names()


@pytest.fixture(scope="session")
def name_of(names):
    def lookup(result):
        def inner(asn: int) -> str:
            return names.get(asn) or result.as_name(asn)
        return inner
    return lookup


@pytest.fixture(scope="session")
def emit():
    """Write a reproduced artifact to benchmarks/output/ and echo it."""
    OUTPUT_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n--- {name} ---\n{text}\n")

    return write


@pytest.fixture(scope="session", autouse=True)
def pipeline_trace_artifact():
    """Persist a traced small-world pipeline run after every bench
    session (``benchmarks/output/pipeline_trace.json``, JSONL events).

    This is the perf-trajectory baseline: each benchmark run leaves
    behind per-stage wall/CPU times and volume counters that a later
    optimisation diffs against. The timings change on every run, so
    the file is untracked (``benchmarks/output/`` is ignored; only the
    paper's table and figure outputs there are tracked).
    """
    yield
    from repro.cli import run_traced
    from repro.obs.export import to_jsonl

    _, tracer = run_traced("small", seed=0)
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "pipeline_trace.json").write_text(to_jsonl(tracer) + "\n")
    tracer.close()


def once(benchmark, fn):
    """Run an analysis exactly once under the benchmark timer.

    Table regeneration is deterministic and often seconds-long; there
    is no value in pytest-benchmark's default multi-round calibration.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def run_case_study(benchmark, result, country, emit, name, lookup):
    """Shared driver for the Table 5–8 case-study benchmarks."""
    from repro.analysis.case_studies import case_study_table, render_case_study

    rows = benchmark.pedantic(
        lambda: case_study_table(result, country), rounds=1, iterations=1
    )
    emit(name, render_case_study(rows, country))
    return rows
