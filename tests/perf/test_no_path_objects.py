"""No per-path object on the pipeline's way from routes to the store.

Propagation hands the RIB series its routes as token columns, the
series hands the judge its paths as token columns, and the judge hands
the column builder clean tokens. So a pipeline run plus the full
``rank_all`` sweep, on either store backend, builds no
:class:`~repro.bgp.policy.Route` at all, and an
:class:`~repro.net.aspath.ASPath` only for the cells rolled for an
anomaly (their clean paths), the overrides planted there and the
Table-1 report's rejection samples.
"""

import pytest

from repro.bgp.policy import Route
from repro.bgp.rib import _stable_uniform
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.core.registry import metric_names
from repro.net.aspath import ASPath
from repro.topology.catalog import build_world


@pytest.fixture()
def built(monkeypatch):
    """Forbid Route construction; count ASPath constructions."""
    count = {"paths": 0}

    def forbidden(self):
        raise AssertionError("a Route was built")

    validate = ASPath.__post_init__
    trusted = ASPath.trusted.__func__

    def counted(self):
        count["paths"] += 1
        validate(self)

    def counted_trusted(cls, asns):
        count["paths"] += 1
        return trusted(cls, asns)

    monkeypatch.setattr(Route, "__post_init__", forbidden)
    monkeypatch.setattr(ASPath, "__post_init__", counted)
    monkeypatch.setattr(ASPath, "trusted", classmethod(counted_trusted))
    return count


def rolled_cells(result):
    """Carried cells whose anomaly roll falls under the total rate,
    counted one cell at a time."""
    ribs = result.ribs
    rate = ribs.config.anomalies.total_rate
    rolled = 0
    for window in ribs.windows():
        for vp, prefix in zip(window.vp.tolist(), window.prefix.tolist()):
            key = f"{ribs.vps[vp].ip}|{ribs.prefix_table[prefix][0]}"
            rolled += _stable_uniform(ribs._seed, "anom", key) < rate
    return rolled


@pytest.mark.parametrize("backend", ["memory", "mmap"])
def test_pipeline_and_sweep(backend, built):
    result = run_pipeline(
        build_world("small", 0), PipelineConfig(seed=0, store_backend=backend)
    )
    try:
        countries = result.countries_with_national_view()
        rankings = result.rank_all(metric_names(), countries)
        assert rankings
        samples = sum(map(len, result.paths.report.samples.values()))
        budget = len(result.ribs.overrides) + samples
        assert built["paths"] <= rolled_cells(result) + budget
        assert built["paths"] >= budget
    finally:
        result.close()
