"""The planted anomalies' draws reach no metric.

Which cells are planted, and in which category, depends on the rolls
alone; each planted path is then rejected by its Table-1 rule or
cleaned back to its clean path. So changing every cell's draw seed
(XORed with a constant between ``RibSeries._inject`` and the planter)
must leave the store, the injection summary, the accepted and rejected
totals and every ranking as they are. Only the report's rejection
samples may move, and a rejected path's category where a poisoning
filler already sits on its own path.
"""

import pytest

import repro.bgp.rib as rib
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.core.registry import iter_specs
from repro.topology.catalog import build_world
from tests.integration.test_ingestion_digest import ingestion_digest

FLIP = 0x5BD1E995


@pytest.fixture
def reseeded(monkeypatch):
    """Plant every series with each cell's draw seed XORed with
    ``FLIP``."""
    plant = rib.plant_anomalies

    def flipped(paths, ids, rolls, seeds, *rest):
        return plant(paths, ids, rolls, seeds ^ FLIP, *rest)

    def use():
        monkeypatch.setattr(rib, "plant_anomalies", flipped)

    return use


def ingested(name, seed, tmp_path, backend="memory", rankings=False):
    """What the metrics read from one pipeline run, and its rankings
    over every metric when asked."""
    result = run_pipeline(
        build_world(name, seed),
        PipelineConfig(
            seed=seed, store_backend=backend,
            spill_dir=str(tmp_path) if backend == "mmap" else None,
        ),
    )
    try:
        report = result.paths.report
        seen = dict(
            samples=report.samples,
            store=ingestion_digest(result.paths, report=False),
            summary=result.ribs.injection_summary,
            totals=(report.total, report.accepted, report.rejected_total()),
        )
        if rankings:
            seen["rankings"] = result.rank_all(
                metrics=[spec.name for spec in iter_specs()]
            )
        return seen
    finally:
        result.close()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_small_world_ignores_the_draws(seed, reseeded, tmp_path):
    before = ingested("small", seed, tmp_path, rankings=True)
    reseeded()
    after = ingested("small", seed, tmp_path, rankings=True)
    assert before["summary"].total() > 0
    assert after.pop("samples") != before.pop("samples")
    assert after == before


@pytest.mark.parametrize("backend", ["memory", "mmap"])
def test_default_store_ignores_the_draws(backend, reseeded, tmp_path):
    before = ingested("default", 42, tmp_path / "before", backend)
    reseeded()
    after = ingested("default", 42, tmp_path / "after", backend)
    assert after.pop("samples") != before.pop("samples")
    assert after == before
