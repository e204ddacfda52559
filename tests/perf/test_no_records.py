"""No record object is built on a hot path.

A view is a store plus positions, and every ranking reads the store's
columns through the view's memoised kernel intermediates. These tests
run the pipeline, the full ``rank_all`` sweep, the Figure 4/5 stability
curves and the report builders on the ``small`` world, on both store
backends, with the record façade's ``__getitem__`` and ``__iter__`` —
and the judge's record builder — raising.
"""

import pytest

from repro.analysis.case_studies import case_study_table
from repro.analysis.reports import country_report
from repro.analysis.stability import international_stability, national_stability
from repro.core.cone import cone_ranking
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.core.registry import metric_names
from repro.core.sanitize import Judge
from repro.core.views import View
from repro.net.prefix import Prefix
from repro.perf.pathstore import _LazyRecords
from repro.relationships.inference import infer_relationships
from repro.topology.catalog import build_world

from tests.oracles.cone import cone_addresses, customer_cones
from tests.oracles import inputs
from tests.oracles.inputs import as_cones


def forbidden(*args):
    raise AssertionError("a record object was built")


@pytest.fixture()
def no_records(monkeypatch):
    """Forbid every way a record gets built from the columns or the
    judge's tables."""
    monkeypatch.setattr(_LazyRecords, "__getitem__", forbidden)
    monkeypatch.setattr(_LazyRecords, "__iter__", forbidden)
    monkeypatch.setattr(Judge, "records", forbidden)


@pytest.mark.parametrize("backend", ["memory", "mmap"])
def test_pipeline_sweep_curves_and_reports(backend, no_records):
    result = run_pipeline(
        build_world("small", 0), PipelineConfig(seed=0, store_backend=backend)
    )
    try:
        countries = result.countries_with_national_view()
        rankings = result.rank_all(metric_names(), countries)
        assert len(rankings) == len(metric_names(needs_country=True)) * len(
            countries
        ) + len(metric_names(needs_country=False))
        code = countries[0]
        for metric in ("AHN", "CCN"):
            curve = national_stability(result, code, metric, trials=2, workers=1)
            assert curve.points
        for metric in ("AHI", "CCI"):
            curve = international_stability(
                result, code, metric, trials=2, workers=1
            )
            assert curve.points
        assert country_report(result, code).markdown
        assert case_study_table(result, code)
    finally:
        result.close()


def record(vp_ip, prefix, path):
    addresses = Prefix.parse(prefix).num_addresses()
    return inputs.record(vp_ip, path, prefix, addresses, prefix_country="AU")


class ChainOracle:
    """Every left-to-right adjacency is provider→customer."""

    def relationship(self, left, right):
        return "p2c"


def test_moas_cone_ranking_reads_columns(monkeypatch):
    # 1.0/16 has two origins (30 and 31): cone members' prefix sets
    # overlap, so the closure is a union over prefix ids
    records = [
        record("9.0.0.1", "1.0.0.0/16", "10 20 30"),
        record("9.0.0.2", "1.0.0.0/16", "10 20 31"),
        record("9.0.0.2", "1.1.0.0/16", "10 31"),
    ]
    oracle = ChainOracle()
    expected = cone_addresses(records, oracle)
    # AS 20's members 30 and 31 both originate 1.0/16: it counts once
    assert expected[20] == 2 * 65536
    view = View.of("international:AU", "AU", records)
    monkeypatch.setattr(_LazyRecords, "__getitem__", forbidden)
    monkeypatch.setattr(_LazyRecords, "__iter__", forbidden)
    ranking = cone_ranking(view, oracle, "CCI:AU")
    assert {e.asn: e.value for e in ranking.entries} == expected


def test_one_view_under_two_oracles():
    """A view memoises cones, closure and CTI per oracle: ranking it
    under ground truth, then inferred relationships, then ground truth
    again gives each oracle's reference cones every time."""
    result = run_pipeline(build_world("small", 0), PipelineConfig(seed=0))
    view = result.view("global")
    truth = result.oracle
    inferred = infer_relationships(result.paths.store().record_paths())
    records = list(view.records)
    expected = [cone_addresses(records, oracle) for oracle in (truth, inferred)]
    assert expected[0] != expected[1]
    for which in (0, 1, 0):
        oracle = (truth, inferred)[which]
        ranking = cone_ranking(view, oracle, "CCG")
        assert {e.asn: e.value for e in ranking.entries} == expected[which]
        assert as_cones(view.computation().cone_pairs(oracle)) == customer_cones(
            records, oracle
        )
