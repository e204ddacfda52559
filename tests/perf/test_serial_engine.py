"""One serial engine: the pipeline, propagation and the stability
curves run in the calling process whatever ``workers`` says.

The library's ``workers`` (and ``pool``) stay accepted where callers
still pass them and are validated ``>= 1``; with every way of starting
a process patched to raise, ``workers=4`` must still produce the
``workers=1`` bytes. Also the batch API the engine serves, ``rank_all``.
"""

import multiprocessing.process
import os
import subprocess

import pytest

from repro import PipelineConfig, run_pipeline
from repro.analysis.stability import international_stability, national_stability
from repro.bgp.propagation import propagate_all
from repro.perf.pool import WorkerPool
from repro.topology.catalog import build_world

#: one curve per CC*/AH* family on each view side
CURVES = (
    (national_stability, "NL", "CCN"),
    (national_stability, "NL", "AHN"),
    (international_stability, "AU", "CCI"),
    (international_stability, "AU", "AHI-P"),
)


@pytest.fixture(scope="module")
def world():
    return build_world("small", 0)


@pytest.fixture(scope="module")
def result(world):
    return run_pipeline(world, PipelineConfig(seed=0))


def _refuse(*args, **kwargs):
    raise AssertionError("the engine started a process")


@pytest.fixture
def no_processes(monkeypatch):
    """Make every way of starting a process raise."""
    for name in ("fork", "forkpty", "posix_spawn", "posix_spawnp", "spawnv"):
        if hasattr(os, name):
            monkeypatch.setattr(os, name, _refuse)
    monkeypatch.setattr(subprocess.Popen, "__init__", _refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", _refuse)


def _columns(outcome):
    columns = outcome.routes.columns
    return [
        getattr(columns, name).tolist()
        for name in ("origins", "starts", "holder", "route_class",
                     "offsets", "lengths", "tokens")
    ]


def _curve_rows(result, workers):
    return [
        (metric, country, curve_of(
            result, country, metric, trials=3, seed=5, workers=workers,
        ).as_rows())
        for curve_of, country, metric in CURVES
    ]


class TestWorkersChangeNothing:
    def test_workers_four_is_serial(self, world, result, no_processes):
        fanned = run_pipeline(world, PipelineConfig(seed=0, workers=4))
        for metric, country in (("AHN", "NL"), ("CCI", "AU"), ("CCG", None)):
            assert fanned.ranking(metric, country).entries == (
                result.ranking(metric, country).entries
            )
        serial = propagate_all(world.graph, keep=world.vp_asns(), tiebreak="hash")
        with WorkerPool(4) as pool:
            pooled = propagate_all(
                world.graph, keep=world.vp_asns(), tiebreak="hash",
                workers=4, pool=pool,
            )
        assert _columns(pooled) == _columns(serial)
        assert _curve_rows(fanned, 4) == _curve_rows(result, 1)

    def test_workers_validated(self, world, result):
        with pytest.raises(ValueError, match="workers"):
            propagate_all(world.graph, workers=0)
        with pytest.raises(ValueError, match="workers"):
            national_stability(result, "NL", "AHN", sizes=[2], workers=0)
        with pytest.raises(ValueError, match="workers"):
            WorkerPool(0)

    def test_pool_shell(self):
        with WorkerPool(3) as pool:
            assert pool.workers == 3
            assert pool.stats == {"spawns": 0, "respawns": 0, "broadcasts": 0}
        pool.close()  # closing twice is harmless


class TestRankAll:
    def test_matches_individual_rankings(self, result):
        countries = result.countries_with_national_view()[:2]
        sweep = result.rank_all(("CCI", "AHN", "CTI"), countries)
        assert set(sweep) == {
            (metric, country)
            for metric in ("CCI", "AHN", "CTI")
            for country in countries
        }
        for (metric, country), ranking in sweep.items():
            assert ranking == result.ranking(metric, country)

    def test_global_metric_keyed_once(self, result):
        sweep = result.rank_all(("CCG",), ["US", "SE"])
        assert list(sweep) == [("CCG", None)]
        assert sweep[("CCG", None)] == result.ranking("CCG")

    def test_rejects_unknown_metric(self, result):
        with pytest.raises(ValueError, match="unknown metric"):
            result.rank_all(("XXX",))

    def test_config_rejects_bad_workers(self):
        with pytest.raises(ValueError, match="workers"):
            PipelineConfig(workers=0)
