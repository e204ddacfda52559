"""Metamorphic property: the order of the records changes no ranking.

Every metric is a function of the *set* of sanitized records, so a store
built from the same records in another order — every path, VP and
prefix id, and the store-wide AS codes renumbered — must rank every
country exactly as the pipeline does. Three seeded shuffles of the
``small`` world's records, each stored as ``PathStore(shuffled)``,
rebuild every registered metric for every home country; and on record
sets drawn as the test matrix draws them, with VPs and prefixes in two
countries, a drawn permutation ranks alike on both store backends.

CTI is the one exception to exact equality: its definition and the
columnar kernel sum ``addresses / k`` per (VP, AS) in record order, so
its float values may move by an ulp with the order. Its ASNs must
still match, and its values agree to ``rel_tol=1e-12``.
"""

import math
import random
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.core.registry import iter_specs
from repro.perf.index import PathIndex
from repro.perf.pathstore import PathStore
from repro.topology.catalog import build_world

from tests.oracles.inputs import BACKENDS, EdgeOracle, build_store, record_sets


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
            assert_alike(spec, country, before, after)


def assert_alike(spec, country, before, after):
    """Equal by ``repr``; CTI's ASNs equal and its values to
    ``rel_tol=1e-12``."""
    if spec.family != "cti":
        assert repr(after.entries) == repr(before.entries), (
            spec.name, country,
        )
        return
    assert [e.asn for e in after.entries] == [
        e.asn for e in before.entries
    ], country
    for old, new in zip(before.entries, after.entries):
        assert math.isclose(new.value, old.value, rel_tol=1e-12), (
            country, old, new,
        )


#: the generated sets' two countries
COUNTRIES = ("AA", "BB")


def one_count_per_prefix(records):
    """The records with every prefix carrying the address count of its
    first record, as a sanitized set's prefixes do (the store keeps a
    prefix's first count, so conflicting counts would make the order
    matter by construction)."""
    counts = {}
    for record in records:
        counts.setdefault(record.prefix, record.addresses)
    return [replace(r, addresses=counts[r.prefix]) for r in records]


def generated_ranking(store, spec, country, oracle):
    """``spec``'s ranking for ``country`` over ``store``; AHC's
    destinations are the origins of the country's prefixes."""
    records = list(store.records)
    origins = sorted({
        r.path.asns[-1] for r in records if r.prefix_country == country
    })
    view_country = None if spec.view_kind == "global" else country
    return spec.rank(
        PathIndex(store).view(spec.view_kind, view_country), country,
        oracle, 0.1, origins,
    )


@settings(max_examples=60, deadline=None)
@given(
    drawn=record_sets(countries=COUNTRIES),
    backend=st.sampled_from(BACKENDS),
    data=st.data(),
)
def test_shuffled_record_sets_rank_alike(drawn, backend, data):
    drawn_records, edges = drawn
    records = one_count_per_prefix(drawn_records)
    shuffled = data.draw(st.permutations(records))
    oracle = EdgeOracle(edges)
    with tempfile.TemporaryDirectory() as directory:
        stores = [
            build_store(order, backend, Path(directory, name))
            for name, order in (("given", records), ("shuffled", shuffled))
        ]
        for spec in iter_specs():
            for country in COUNTRIES if spec.needs_country else [None]:
                before, after = (
                    generated_ranking(store, spec, country, oracle)
                    for store in stores
                )
                assert_alike(spec, country, before, after)
