"""The Table-1 output pinned on the default world, value-exact.

Each digest covers what ingestion hands every metric: the sanitized
records, the filter report with its rejection samples, the seven store
columns, the distinct paths and the side tables. They were recorded
before the columnar judge replaced the per-record sanitize loop, so
they hold it to that loop's output at two seeds and on both store
backends. Regenerate only for an intentional change to the Table-1
rules or the simulated inputs.
"""

import hashlib

import numpy as np
import pytest

from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.perf.pathstore import COLUMNS
from repro.topology.catalog import build_world

DIGESTS = {
    (42, "memory"): (
        "384c8d158c81ef978afa10ddee18760d7e9c9e62d4b7894720581f59c206ed5b"
    ),
    (0, "memory"): (
        "9e23294d2b8b6da388215a6c470f2ed61ec5122bdc5b379ce8521796f8036c27"
    ),
    (0, "mmap"): (
        "9e23294d2b8b6da388215a6c470f2ed61ec5122bdc5b379ce8521796f8036c27"
    ),
}


def ingestion_digest(paths):
    """sha256 over a PathSet's records, report (counts and samples),
    store columns, distinct paths and side tables."""
    digest = hashlib.sha256()
    for record in paths.records:
        digest.update(repr((
            record.vp, record.vp_country, record.prefix,
            record.prefix_country, record.path.asns, record.addresses,
        )).encode())
    report = paths.report
    digest.update(repr((
        report.total, report.accepted, sorted(report.rejected.items()),
        [(category, rows) for category, rows in report.samples.items()],
    )).encode())
    store = paths.store()
    for name in COLUMNS:
        digest.update(np.asarray(getattr(store, name), dtype=np.int64).tobytes())
    digest.update(repr((
        [path.asns for path in store.paths], store.vp_table,
        store.prefix_table, list(store.record_addresses),
    )).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("seed,backend", sorted(DIGESTS))
def test_ingestion_matches_pinned_digest(seed, backend, tmp_path):
    result = run_pipeline(
        build_world("default", seed),
        PipelineConfig(
            seed=seed, store_backend=backend,
            spill_dir=str(tmp_path) if backend == "mmap" else None,
        ),
    )
    try:
        assert ingestion_digest(result.paths) == DIGESTS[(seed, backend)]
    finally:
        result.close()
