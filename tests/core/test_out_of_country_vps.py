"""Metamorphic property: out-of-country VPs change nothing at home.

A country's national view keeps only paths from its own VPs to its own
prefixes (§3.2), so adding the records of a VP located in another
country must leave that country's CCN and AHN exactly as they were.
The fabricated VP's paths start with ASNs the store has never seen,
numbered among the ASNs it holds, and its records come first: the
store-wide AS codes above them, every path, VP and prefix id and the
suffix table shift. Equal rankings show that no store-wide memo leaks
into a view's answer.
"""

import pytest

from repro.bgp.collectors import VantagePoint
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.core.registry import MetricContext, get_spec
from repro.core.sanitize import PathRecord
from repro.core.views import View
from repro.net.asn import is_public_asn
from repro.net.aspath import ASPath
from repro.perf.pathstore import PathStore
from repro.topology.catalog import build_world

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


def with_foreign_vp(result, country):
    """A store over the records of one fabricated VP located in
    ``country`` (every prefix, through two unseen ASes), then the
    sanitized records."""
    store = result.paths.store()
    vp_asn, transit = fresh_asns(store, 2)
    vp = VantagePoint("198.51.100.77", vp_asn, "fabricated-ix")
    targets = {}
    for record in store.records:
        targets.setdefault(record.prefix, record)
    fabricated = [
        PathRecord(
            vp, country, prefix, record.prefix_country,
            ASPath((vp_asn, transit, *record.path.asns)), record.addresses,
        )
        for prefix, record in targets.items()
    ]
    return PathStore([*fabricated, *store.records])


def national_ranking(result, store, metric, country):
    positions = [
        position for position, record in enumerate(store.records)
        if record.vp_country == country and record.prefix_country == country
    ]
    return get_spec(metric).build(MetricContext(
        view=View(f"national:{country}", country, store, positions),
        oracle=result.oracle,
        trim=result.config.trim,
        country=country,
    ))


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
                after = national_ranking(result, grown, metric, country)
                assert described(after) == described(before), (
                    vp_country, metric, country,
                )


def test_foreign_vp_changes_its_own_national_view(result, home_countries):
    """The control: the fabricated VP does reach its own country's
    national view, so the property above is not vacuous."""
    vp_country = home_countries[0]
    grown = with_foreign_vp(result, vp_country)
    before = result.ranking("AHN", vp_country)
    after = national_ranking(result, grown, "AHN", vp_country)
    assert described(after) != described(before)
