"""PathIndex lookups against full scans, VP ordering and VP
downsampling.

The batch engine's contract is that indexed construction is invisible:
every indexed view equals the full scan of ``tests/oracles/views.py``
(same name, country, store and positions), here on the ``small`` world
and on every input of ``tests/oracles/test_matrix.py``. Also: the
index's argument checks, the numeric VP order, and ``restrict_vps``
against a per-record filter on VP IP.
"""

import random

import pytest

from repro import GeneratorConfig, generate_world, run_pipeline, small_profiles
from repro.core.sanitize import FilterReport, PathSet
from repro.core.views import View, ip_sort_key
from repro.perf import PathIndex

from tests.oracles import views
from tests.oracles.inputs import record

SMALL = GeneratorConfig(profiles=small_profiles(), clique_homes=("US", "US", "SE", "JP"))


@pytest.fixture(scope="module")
def result():
    return run_pipeline(generate_world(SMALL, seed=1, name="small"))


@pytest.fixture(scope="module")
def index(result):
    return PathIndex.from_paths(result.paths)


class TestIndexedViews:
    def test_country_views_match_naive(self, result, index):
        for country in result.paths.countries():
            for kind, build in views.BUILDERS.items():
                naive = build(result.paths, country)
                indexed = index.view(kind, country)
                assert indexed.name == naive.name
                assert indexed.country == naive.country
                assert indexed.store is naive.store
                assert indexed.positions.tolist() == naive.positions.tolist()

    def test_global_view_matches_naive(self, result, index):
        naive = views.global_view(result.paths)
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
            record("10.0.0.1", "1 2 3", "1.0.0.0/16", 65536, "AU", "AU"),
            record("9.0.0.1", "4 2 3", "1.0.0.0/16", 65536, "AU", "AU"),
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
