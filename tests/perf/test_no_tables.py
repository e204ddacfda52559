"""No per-AS dict or set on the sweep path.

Every score table travels from its kernel to its ranking as an
``(asns, values)`` column pair: cones are (holder, member) pairs, AHC
averages its per-origin columns with one ``np.bincount``, and
``Ranking.from_columns`` ranks the columns. These tests run the
pipeline, the full ``rank_all`` sweep, a stability curve per family and
view side and the report builders on the ``small`` world, on both store
backends, with ``Ranking.from_scores``, the dict-table constructor,
raising. (The dict-building definitions of the metrics live in
``tests/oracles``, out of reach of the package.)
"""

import pytest

from repro.analysis.case_studies import case_study_table
from repro.analysis.reports import country_report
from repro.analysis.stability import international_stability, national_stability
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.core.ranking import Ranking
from repro.core.registry import metric_names
from repro.topology.catalog import build_world


def forbidden(*args, **kwargs):
    raise AssertionError("a per-AS dict or set table was built")


@pytest.fixture()
def no_tables(monkeypatch):
    """Replace the dict-table ranking constructor with ``forbidden``."""
    monkeypatch.setattr(Ranking, "from_scores", classmethod(forbidden))


@pytest.mark.parametrize("backend", ["memory", "mmap"])
def test_pipeline_sweep_curves_and_reports(backend, no_tables):
    result = run_pipeline(
        build_world("small", 0), PipelineConfig(seed=0, store_backend=backend)
    )
    try:
        countries = result.countries_with_national_view()
        rankings = result.rank_all(metric_names(), countries)
        assert len(rankings) == len(metric_names(needs_country=True)) * len(
            countries
        ) + len(metric_names(needs_country=False))
        assert all(ranking.entries for ranking in rankings.values())
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
