"""PathIndex and VP-downsampling equivalence with the naive view
builders.

The batch engine's contract is that indexed construction is invisible:
same view names, same countries, same positions (so the same records in
the same order) as :mod:`repro.core.views`. These tests pin that down
on a full small-world pipeline plus hand-built corner cases.
"""

import random

import pytest

from repro import GeneratorConfig, PipelineConfig, generate_world, run_pipeline, small_profiles
from repro.bgp.collectors import VantagePoint
from repro.core.sanitize import FilterReport, PathRecord, PathSet
from repro.core.views import (
    View,
    global_view,
    international_view,
    ip_sort_key,
    national_view,
    outbound_view,
)
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.perf import PathIndex

SMALL = GeneratorConfig(profiles=small_profiles(), clique_homes=("US", "US", "SE", "JP"))

NAIVE_BUILDERS = {
    "national": national_view,
    "international": international_view,
    "outbound": outbound_view,
}


@pytest.fixture(scope="module")
def result():
    return run_pipeline(generate_world(SMALL, seed=1, name="small"))


@pytest.fixture(scope="module")
def index(result):
    return PathIndex.from_paths(result.paths)


def record(vp_ip, vp_country, prefix, prefix_country, path):
    return PathRecord(
        vp=VantagePoint(vp_ip, int(path.split()[0]), "c"),
        vp_country=vp_country,
        prefix=Prefix.parse(prefix),
        prefix_country=prefix_country,
        path=ASPath.parse(path),
        addresses=Prefix.parse(prefix).num_addresses(),
    )


class TestIndexedViews:
    def test_country_views_match_naive(self, result, index):
        for country in result.paths.countries():
            for kind, build in NAIVE_BUILDERS.items():
                naive = build(result.paths, country)
                indexed = index.view(kind, country)
                assert indexed.name == naive.name
                assert indexed.country == naive.country
                assert indexed.store is naive.store
                assert indexed.positions.tolist() == naive.positions.tolist()

    def test_global_view_matches_naive(self, result, index):
        naive = global_view(result.paths)
        indexed = index.view("global")
        assert indexed.name == naive.name
        assert indexed.country is None
        assert list(indexed.records) == list(naive.records)

    def test_unknown_kind_rejected_before_country_check(self, index):
        with pytest.raises(ValueError, match="unknown view kind"):
            index.view("bogus")

    def test_country_required_for_country_kinds(self, index):
        with pytest.raises(ValueError, match="requires a country"):
            index.view("national")


class TestVPOrdering:
    def test_vps_sorted_numerically_not_lexicographically(self):
        records = [
            record("10.0.0.1", "AU", "1.0.0.0/16", "AU", "1 2 3"),
            record("9.0.0.1", "AU", "1.0.0.0/16", "AU", "4 2 3"),
        ]
        view = View.of("national:AU", "AU", records)
        ips = [vp.ip for vp in view.vps()]
        # lexicographically "10.0.0.1" < "9.0.0.1"; numerically not
        assert ips == ["9.0.0.1", "10.0.0.1"]
        paths = PathSet(records=records, report=FilterReport())
        assert [vp.ip for vp in paths.vps()] == ["9.0.0.1", "10.0.0.1"]

    def test_ip_sort_key_handles_both_families(self):
        assert ip_sort_key("9.0.0.1") < ip_sort_key("10.0.0.1")
        assert ip_sort_key("10.0.0.1") < ip_sort_key("::1")


class TestRestrictVps:
    def test_restrict_matches_naive_restrict_vps(self, result):
        """The VP-id mask keeps exactly the records a per-record filter
        on VP IP keeps, in order, over the same store."""
        code = result.countries_with_national_view()[0]
        view = result.view("international", code)
        records = list(view.records)
        ips = [vp.ip for vp in view.vps()]
        rng = random.Random(7)
        for size in (1, 2, max(1, len(ips) // 2), len(ips)):
            sample = rng.sample(ips, size)
            fast = view.restrict_vps(sample)
            assert fast.name == f"{view.name}|{size}vps"
            assert fast.country == view.country
            assert fast.store is view.store
            assert list(fast.records) == [
                r for r in records if r.vp.ip in set(sample)
            ]

    def test_vp_ips_match_view(self, result):
        """``View.vps()`` is the distinct VPs of the view's records,
        ordered by parsed address."""
        view = result.view("global")
        distinct = {r.vp.ip for r in view.records}
        assert [vp.ip for vp in view.vps()] == sorted(distinct, key=ip_sort_key)
