"""The Table 2 view definitions (``tests/oracles/views.py``) on a
hand-built path set, and the views' VP, address and subset queries."""

from repro.core.sanitize import FilterReport, PathSet
from repro.net.prefix import Prefix

from tests.oracles import inputs
from tests.oracles.views import (
    destination_view,
    global_view,
    international_view,
    national_view,
)


def record(vp_ip, vp_country, prefix, prefix_country, path):
    addresses = Prefix.parse(prefix).num_addresses()
    return inputs.record(vp_ip, path, prefix, addresses, vp_country, prefix_country)


def make_paths():
    records = [
        record("10.0.0.1", "AU", "1.0.0.0/16", "AU", "1 2 3"),     # AU -> AU
        record("10.0.0.2", "US", "1.0.0.0/16", "AU", "4 2 3"),     # US -> AU
        record("10.0.0.2", "US", "1.1.0.0/16", "AU", "4 2 5"),     # US -> AU
        record("10.0.0.1", "AU", "2.0.0.0/16", "US", "1 2 6"),     # AU -> US
        record("10.0.0.3", "US", "2.0.0.0/16", "US", "7 6"),       # US -> US
    ]
    return PathSet(records=records, report=FilterReport())


class TestViews:
    def test_national(self):
        view = national_view(make_paths(), "AU")
        assert len(view) == 1
        assert view.records[0].vp_country == "AU"
        assert view.country == "AU"

    def test_international(self):
        view = international_view(make_paths(), "AU")
        assert len(view) == 2
        assert all(r.vp_country != "AU" for r in view)
        assert all(r.prefix_country == "AU" for r in view)

    def test_national_plus_international_cover_destination(self):
        paths = make_paths()
        to_au = [r for r in paths.records if r.prefix_country == "AU"]
        national = national_view(paths, "AU")
        international = international_view(paths, "AU")
        assert len(national) + len(international) == len(to_au)

    def test_global(self):
        view = global_view(make_paths())
        assert len(view) == 5
        assert view.country is None

    def test_destination_view(self):
        view = destination_view(make_paths(), origins=[3, 5])
        assert len(view) == 3
        assert {r.origin for r in view} == {3, 5}


class TestViewHelpers:
    def test_vps(self):
        view = international_view(make_paths(), "AU")
        assert [vp.ip for vp in view.vps()] == ["10.0.0.2"]

    def test_total_addresses_dedupes(self):
        view = global_view(make_paths())
        # Three distinct prefixes of /16 each.
        assert view.total_addresses() == 3 << 16

    def test_restrict_vps(self):
        view = global_view(make_paths())
        restricted = view.restrict_vps(["10.0.0.1"])
        assert len(restricted) == 2
        assert all(r.vp.ip == "10.0.0.1" for r in restricted)
        assert restricted.country is None

    def test_restrict_vps_empty(self):
        view = global_view(make_paths())
        assert len(view.restrict_vps([])) == 0
