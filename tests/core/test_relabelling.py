"""Metamorphic property: renaming ASes changes no metric.

Every metric is defined on AS identities only through equality and,
for a ranking's ties, their order. So an order-preserving relabelling
of every ASN in the sanitized records — with the oracle's p2c edges
and the registered origins relabelled to match — must map every table
back value for value, and every ranking must keep its order. The new
ASNs lie in [2**31, 2**32): past any signed 32-bit type, and spread
too wide for the store's AS codes to be numbered by a presence table,
so the kernels take their sort-based numbering throughout.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ahc import AHC_WEIGHTINGS, ahc_ranking
from repro.core.cone import cone_ranking
from repro.core.cti import cti_ranking
from repro.core.hegemony import hegemony_ranking
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.core.sanitize import PathRecord
from repro.core.views import View
from repro.net.asn import is_public_asn
from repro.net.aspath import ASPath
from repro.perf.pathstore import PathStore
from repro.topology.catalog import build_world

from tests.perf.test_cone_kernel import EdgeOracle

TRIM = 0.1
KINDS = ("national", "international", "outbound")


@pytest.fixture(scope="module")
def result():
    return run_pipeline(build_world("small", 0), PipelineConfig(seed=0))


@pytest.fixture(scope="module")
def views(result):
    """``(name, country, positions)`` of the global view and of every
    destination country's national, international and outbound views."""
    selected = [("global", None, result.view("global").positions)]
    for country in result.paths.countries():
        for kind in KINDS:
            view = result.view(kind, country)
            selected.append((view.name, country, view.positions))
    return selected


def relabelling(asns, seed):
    """An order-preserving map of ``asns`` onto distinct public ASNs
    in [2**31, 2**32)."""
    rng = np.random.default_rng(seed)
    labels: set[int] = set()
    while len(labels) < len(asns):
        labels.update(
            label for label in rng.integers(2**31, 2**32, size=len(asns)).tolist()
            if is_public_asn(label)
        )
    return dict(zip(sorted(asns), sorted(labels)[:len(asns)]))


def tables(view, oracle, origins):
    """Every metric product over ``view``, as ``{name: table}`` with
    each table an ``{asn: value}`` dict, and the rankings they yield."""
    compute = view.computation()
    products = {
        "hegemony-addresses": compute.hegemony(TRIM, "addresses"),
        "hegemony-prefixes": compute.hegemony(TRIM, "prefixes"),
        "closure": compute.cone_addresses(oracle),
        "cti": compute.cti(oracle, TRIM),
    }
    rankings = {
        "hegemony-addresses": hegemony_ranking(view, trim=TRIM),
        "hegemony-prefixes": hegemony_ranking(
            view, trim=TRIM, weighting="prefixes"
        ),
        "closure": cone_ranking(view, oracle),
        "cti": cti_ranking(view, oracle, TRIM),
    }
    for country, registered in origins.items():
        for origin, table in compute.local_hegemonies(registered, TRIM).items():
            products[f"local {country} {origin}"] = table
        for weighting in AHC_WEIGHTINGS:
            ranking = ahc_ranking(view, country, registered, TRIM, weighting)
            rankings[f"ahc {country} {weighting}"] = ranking
            products[f"ahc {country} {weighting}"] = {
                entry.asn: entry.value for entry in ranking
            }
    return products, rankings


def unchanged(asn):
    return asn


def reprs(table, rename=unchanged):
    return {rename(asn): repr(value) for asn, value in table.items()}


def ranked(ranking, rename=unchanged):
    return [
        (entry.rank, rename(entry.asn), repr(entry.value), repr(entry.share))
        for entry in ranking
    ]


@pytest.fixture(scope="module")
def expected(result, views):
    """Per view, its products and rankings on the original ASNs, with
    the registered origins of every country (AHC reads the global
    view)."""
    store = result.paths.store()
    graph = result.world.graph
    countries = sorted({country for _, country, _ in views if country})
    origins = {code: graph.by_registry_country(code) for code in countries}
    return origins, [
        (name, country, positions, *tables(
            View(name, country, store, positions), result.oracle,
            origins if country is None else {},
        ))
        for name, country, positions in views
    ]


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_order_preserving_relabelling_maps_every_table_back(
    result, expected, seed
):
    store = result.paths.store()
    label = relabelling(
        set(result.world.graph.asns()) | set(store.tokens.tolist()), seed
    )
    relabelled = PathStore(
        PathRecord(
            replace(record.vp, asn=label[record.vp.asn]),
            record.vp_country,
            record.prefix,
            record.prefix_country,
            ASPath(tuple(label[asn] for asn in record.path)),
            record.addresses,
        )
        for record in store.records
    )
    assert int(relabelled.tokens.min()) >= 2**31
    oracle = EdgeOracle(
        (label[left], label[right]) for left, right in result.oracle.p2c_edges()
    )
    origins, computed = expected
    renamed = {
        code: [label[origin] for origin in registered]
        for code, registered in origins.items()
    }
    for name, country, positions, before, before_rankings in computed:
        after, after_rankings = tables(
            View(name, country, relabelled, positions), oracle,
            renamed if country is None else {},
        )
        mapped = {}
        for key, table in before.items():
            if key.startswith("local "):
                _, code, origin = key.split()
                key = f"local {code} {label[int(origin)]}"
            mapped[key] = reprs(table, label.__getitem__)
        assert mapped == {key: reprs(table) for key, table in after.items()}, name
        for key, ranking in before_rankings.items():
            renamed_ranking = ranked(ranking, label.__getitem__)
            assert renamed_ranking == ranked(after_rankings[key]), (name, key)
