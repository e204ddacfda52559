"""The Table-1 output pinned on the default world, value-exact.

Each of ``DIGESTS`` covers what ingestion hands every metric and the
filter report: the sanitized records, the report with its rejection
samples, the seven store columns, the distinct paths and the side
tables, at two seeds and on both store backends. They were first
recorded with the per-record sanitize loop the columnar judge
replaced, and re-pinned when the planted anomalies' draws changed,
which moved the rejection samples. Regenerate only for an intentional
change to the Table-1 rules or the simulated inputs.

``STORE_DIGESTS`` cover the same minus the report: what the metrics
read. They were recorded before that change to the draws and held
through it; a change to the planted anomalies' draws alone must keep
them.
"""

import hashlib

import numpy as np
import pytest

from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.perf.pathstore import COLUMNS
from repro.topology.catalog import build_world

DIGESTS = {
    (42, "memory"): (
        "5fde04a9880fa4284e608ac4c01af442037c9795e25ab90ff0396afc052a9d1e"
    ),
    (0, "memory"): (
        "b62f643922d513335ce299899cb3683063970377c224215c39175f532e737194"
    ),
    (0, "mmap"): (
        "b62f643922d513335ce299899cb3683063970377c224215c39175f532e737194"
    ),
}

STORE_DIGESTS = {
    (42, "memory"): (
        "c431dac118f3283c432500e370f5b2e2a86b95931fe79c144eefb88b5677f526"
    ),
    (0, "memory"): (
        "eafedf5713d1c213b4c364dc97082600896a651d1bca41c64a647d953a785c76"
    ),
    (0, "mmap"): (
        "eafedf5713d1c213b4c364dc97082600896a651d1bca41c64a647d953a785c76"
    ),
}


def ingestion_digest(paths, report=True):
    """sha256 over a PathSet's records, report (counts and samples;
    left out when ``report`` is false), store columns, distinct paths
    and side tables."""
    digest = hashlib.sha256()
    for record in paths.records:
        digest.update(repr((
            record.vp, record.vp_country, record.prefix,
            record.prefix_country, record.path.asns, record.addresses,
        )).encode())
    if report:
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


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    """``(seed, backend) -> (full digest, store digest)``, one pipeline
    run per case."""
    done = {}

    def of(seed, backend):
        if (seed, backend) not in done:
            result = run_pipeline(
                build_world("default", seed),
                PipelineConfig(
                    seed=seed, store_backend=backend,
                    spill_dir=(
                        str(tmp_path_factory.mktemp("spill"))
                        if backend == "mmap" else None
                    ),
                ),
            )
            try:
                done[seed, backend] = (
                    ingestion_digest(result.paths),
                    ingestion_digest(result.paths, report=False),
                )
            finally:
                result.close()
        return done[seed, backend]

    return of


@pytest.mark.parametrize("seed,backend", sorted(DIGESTS))
def test_ingestion_matches_pinned_digest(seed, backend, digests):
    assert digests(seed, backend)[0] == DIGESTS[(seed, backend)]


@pytest.mark.parametrize("seed,backend", sorted(STORE_DIGESTS))
def test_store_matches_pinned_digest(seed, backend, digests):
    assert digests(seed, backend)[1] == STORE_DIGESTS[(seed, backend)]
