"""Metamorphic property: the order of the records changes no ranking.

Every metric is a function of the *set* of sanitized records, so a store
built from the same records in another order — every path, VP and
prefix id, and the store-wide AS codes renumbered — must rank every
country exactly as the pipeline does. Three seeded shuffles of the
``small`` world's records, each stored as ``PathStore(shuffled)``,
rebuild every registered metric for every home country.

CTI is the one exception to exact equality: its definition and the
columnar kernel sum ``addresses / k`` per (VP, AS) in record order, so
its float values may move by an ulp with the order. Its ASNs must
still match, and its values agree to ``rel_tol=1e-12``.
"""

import math
import random

import pytest

from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.core.registry import iter_specs
from repro.perf.index import PathIndex
from repro.perf.pathstore import PathStore
from repro.topology.catalog import build_world


@pytest.fixture(scope="module")
def result():
    return run_pipeline(build_world("small", 0), PipelineConfig(seed=0))


def rebuilt(result, index, spec, country):
    """``spec``'s ranking for ``country`` over the views of ``index``,
    assembled as the pipeline assembles them."""
    origins = ()
    if spec.family == "ahc":
        origins = result.origins(country)
    view_country = None if spec.view_kind == "global" else country
    return spec.rank(
        index.view(spec.view_kind, view_country), country, result.oracle,
        result.config.trim, origins,
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_shuffled_records_rank_alike(result, seed):
    records = list(result.paths.store().records)
    random.Random(seed).shuffle(records)
    index = PathIndex(PathStore(records))
    countries = result.countries_with_national_view(min_vps=1)
    for spec in iter_specs():
        for country in countries if spec.needs_country else [None]:
            before = result.ranking(spec.name, country)
            after = rebuilt(result, index, spec, country)
            assert before.entries, (spec.name, country)
            if spec.family != "cti":
                assert repr(after.entries) == repr(before.entries), (
                    spec.name, country,
                )
                continue
            assert [e.asn for e in after.entries] == [
                e.asn for e in before.entries
            ], country
            for old, new in zip(before.entries, after.entries):
                assert math.isclose(new.value, old.value, rel_tol=1e-12), (
                    country, old, new,
                )
