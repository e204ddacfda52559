"""Metamorphic property: out-of-country VPs change nothing at home.

A country's national view keeps only paths from its own VPs to its own
prefixes (§3.2), so adding the records of a VP located in another
country must leave that country's CCN and AHN exactly as they were.
The fabricated VP's paths start with ASNs the store has never seen,
numbered among the ASNs it holds, and its records come first: the
store-wide AS codes above them, every path, VP and prefix id and the
suffix table shift. Equal rankings show that no store-wide memo leaks
into a view's answer. The property holds on the ``small`` world and on
record sets drawn as the test matrix draws them, with every VP and
prefix in one of two countries, on both store backends.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.collectors import VantagePoint
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.core.registry import get_spec
from repro.core.sanitize import PathRecord
from repro.core.views import View
from repro.net.asn import is_public_asn
from repro.net.aspath import ASPath
from repro.perf.pathstore import PathStore
from repro.topology.catalog import build_world

from tests.oracles.inputs import (
    BACKENDS,
    EdgeOracle,
    build_store,
    record_sets,
    relabelled,
)

METRICS = ("CCN", "AHN")


@pytest.fixture(scope="module")
def result():
    return run_pipeline(build_world("small", 0), PipelineConfig(seed=0))


@pytest.fixture(scope="module")
def home_countries(result):
    """Countries with a non-empty national view."""
    return sorted({
        record.vp_country for record in result.paths.store().records
        if record.vp_country == record.prefix_country
    })


def fresh_asns(store, count):
    """The ``count`` smallest public ASNs the store has never seen
    (below its largest, so the AS codes above them shift)."""
    seen = set(store.tokens.tolist())
    fresh = []
    asn = 1
    while len(fresh) < count:
        if asn not in seen and is_public_asn(asn):
            fresh.append(asn)
        asn += 1
    assert fresh[-1] < int(store.tokens.max())
    return fresh


def foreign_vp(records, country, vp_asn, transit):
    """The records of one fabricated VP located in ``country``: a path
    to every prefix of ``records`` through ASes ``vp_asn`` and
    ``transit``, carrying the address count the store keeps for it."""
    vp = VantagePoint("198.51.100.77", vp_asn, "fabricated-ix")
    targets = {}
    for record in records:
        targets.setdefault(record.prefix, record)
    return [
        PathRecord(
            vp, country, prefix, record.prefix_country,
            ASPath((vp_asn, transit, *record.path.asns)), record.addresses,
        )
        for prefix, record in targets.items()
    ]


def with_foreign_vp(result, country):
    """A store over the records of one fabricated VP located in
    ``country`` (every prefix, through two unseen ASes), then the
    sanitized records."""
    store = result.paths.store()
    records = list(store.records)
    return PathStore([*foreign_vp(records, country, *fresh_asns(store, 2)), *records])


def national_positions(store, country):
    return [
        position for position, record in enumerate(store.records)
        if record.vp_country == country and record.prefix_country == country
    ]


def national_ranking(store, metric, country, oracle, trim):
    view = View(
        f"national:{country}", country, store,
        national_positions(store, country),
    )
    return get_spec(metric).rank(view, country, oracle, trim)


def described(ranking):
    return ranking.metric, ranking.country, repr(ranking.entries)


def test_foreign_vp_leaves_every_other_national_ranking(result, home_countries):
    assert len(home_countries) >= 2
    for vp_country in home_countries[:2]:
        grown = with_foreign_vp(result, vp_country)
        assert grown.record_count > result.paths.store().record_count
        for country in home_countries:
            if country == vp_country:
                continue
            for metric in METRICS:
                before = result.ranking(metric, country)
                assert before.entries, (metric, country)
                after = national_ranking(
                    grown, metric, country, result.oracle, result.config.trim
                )
                assert described(after) == described(before), (
                    vp_country, metric, country,
                )


def test_foreign_vp_changes_its_own_national_view(result, home_countries):
    """The control: the fabricated VP does reach its own country's
    national view, so the property above is not vacuous."""
    vp_country = home_countries[0]
    grown = with_foreign_vp(result, vp_country)
    before = result.ranking("AHN", vp_country)
    after = national_ranking(
        grown, "AHN", vp_country, result.oracle, result.config.trim
    )
    assert described(after) != described(before)


#: the generated sets' two countries
COUNTRIES = ("AA", "BB")
#: the drawn pool 1-8 is relabelled onto even ASNs, so the fabricated
#: VP's ASes 1 and 3 are unseen and AS 1 sorts below every drawn one
EVEN = tuple(range(2, 17, 2))


@settings(max_examples=80, deadline=None)
@given(
    drawn=record_sets(countries=COUNTRIES),
    backend=st.sampled_from(BACKENDS),
)
def test_foreign_vp_on_generated_record_sets(drawn, backend):
    """For each country of a drawn record set, a fabricated VP located
    in the other one, its records first, leaves the country's CCN and
    AHN equal; it does join the other country's national view."""
    drawn_records, drawn_edges = drawn
    records = relabelled(drawn_records, EVEN)
    oracle = EdgeOracle(
        {(EVEN[left - 1], EVEN[right - 1]) for left, right in drawn_edges}
    )
    with tempfile.TemporaryDirectory() as directory:
        base = build_store(records, backend, Path(directory, "base"))
        for country, elsewhere in (COUNTRIES, COUNTRIES[::-1]):
            fabricated = foreign_vp(records, elsewhere, 1, 3)
            grown = build_store(
                fabricated + records, backend, Path(directory, elsewhere)
            )
            for metric in METRICS:
                before = national_ranking(base, metric, country, oracle, 0.1)
                after = national_ranking(grown, metric, country, oracle, 0.1)
                assert described(after) == described(before), (metric, country)
            joined = len(national_positions(grown, elsewhere)) - len(
                national_positions(base, elsewhere)
            )
            assert joined == sum(
                record.prefix_country == elsewhere for record in fabricated
            )
