"""Tests for the synthetic geolocation database."""

import pytest

from repro.geo.database import GeoDatabase
from repro.net.prefix import Prefix
from repro.topology import GeneratorConfig, generate_world, small_profiles

from tests.geo.queries import country_shares, lookup, lookup_text, majority_country


def p(text):
    return Prefix.parse(text)


class TestAssignLookup:
    def test_basic(self):
        db = GeoDatabase()
        db.assign(p("10.0.0.0/8"), "US")
        assert lookup(db, 4, (10 << 24) + 1) == "US"
        assert lookup(db, 4, 11 << 24) is None
        assert lookup_text(db, "10.1.2.3") == "US"

    def test_most_specific_wins(self):
        db = GeoDatabase()
        db.assign(p("10.0.0.0/8"), "US")
        db.assign(p("10.1.0.0/16"), "CA")
        assert lookup_text(db, "10.1.0.1") == "CA"
        assert lookup_text(db, "10.2.0.1") == "US"

    def test_unassign(self):
        db = GeoDatabase()
        db.assign(p("10.0.0.0/8"), "US")
        db.unassign(p("10.0.0.0/9"))
        assert lookup_text(db, "10.0.0.1") is None
        assert lookup_text(db, "10.128.0.1") == "US"


class TestCountryShares:
    def test_homogeneous(self):
        db = GeoDatabase()
        db.assign(p("10.0.0.0/8"), "US")
        shares = country_shares(db, p("10.0.0.0/16"))
        assert shares == {"US": 1.0}

    def test_split(self):
        db = GeoDatabase()
        db.assign(p("10.0.0.0/8"), "US")
        db.assign(p("10.0.0.0/9"), "CA")
        shares = country_shares(db, p("10.0.0.0/8"))
        assert shares == {"US": 0.5, "CA": 0.5}

    def test_none_share_for_gaps(self):
        db = GeoDatabase()
        db.assign(p("10.0.0.0/9"), "US")
        shares = country_shares(db, p("10.0.0.0/8"))
        assert shares[None] == 0.5
        assert shares["US"] == 0.5

    def test_shares_sum_to_one(self):
        db = GeoDatabase()
        db.assign(p("10.0.0.0/8"), "US")
        db.assign(p("10.64.0.0/10"), "CA")
        db.assign(p("10.64.0.0/12"), "MX")
        shares = country_shares(db, p("10.0.0.0/8"))
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_unknown_space(self):
        db = GeoDatabase()
        assert country_shares(db, p("10.0.0.0/8")) == {None: 1.0}

    def test_wrong_family(self):
        db = GeoDatabase()
        db.assign(p("10.0.0.0/8"), "US")
        assert country_shares(db, p("2001:db8::/32")) == {None: 1.0}


class TestMajority:
    def test_clear_majority(self):
        db = GeoDatabase()
        db.assign(p("10.0.0.0/8"), "US")
        db.assign(p("10.0.0.0/10"), "CA")  # 25 %
        assert majority_country(db, p("10.0.0.0/8")) == "US"

    def test_exact_half_fails_strict_threshold(self):
        db = GeoDatabase()
        db.assign(p("10.0.0.0/9"), "US")
        db.assign(p("10.128.0.0/9"), "CA")
        assert majority_country(db, p("10.0.0.0/8")) is None

    def test_custom_threshold(self):
        db = GeoDatabase()
        db.assign(p("10.0.0.0/8"), "US")
        db.assign(p("10.0.0.0/10"), "CA")  # US has 75 %
        assert majority_country(db, p("10.0.0.0/8"), threshold=0.8) is None
        assert majority_country(db, p("10.0.0.0/8"), threshold=0.7) == "US"


class TestFromWorld:
    @pytest.fixture(scope="class")
    def world(self):
        return generate_world(
            GeneratorConfig(profiles=small_profiles(), clique_homes=("US", "US", "SE", "JP")),
            seed=13,
        )

    def test_noiseless_matches_ground_truth(self, world):
        db = GeoDatabase.from_world(world, noise_rate=0.0, miss_rate=0.0, seed=0)
        for asn, record in world.graph.originations():
            if record.foreign_share:
                continue
            shares = country_shares(db, record.prefix)
            # Same-country more specifics may overlay, so the home
            # country still holds everything.
            assert shares.get(record.country, 0.0) == pytest.approx(1.0)

    def test_cross_border_shares_respected(self, world):
        db = GeoDatabase.from_world(world, noise_rate=0.0, miss_rate=0.0, seed=0)
        found = 0
        for asn, record in world.graph.originations():
            if not record.foreign_share:
                continue
            shares = country_shares(db, record.prefix)
            foreign = shares.get(record.foreign_country, 0.0)
            if not foreign:
                # A same-space more-specific origination may overwrite the
                # foreign chunks; skip those collisions.
                continue
            found += 1
            assert foreign == pytest.approx(record.foreign_share, abs=0.1)
        assert found > 0

    def test_deterministic(self, world):
        a = GeoDatabase.from_world(world, seed=3)
        b = GeoDatabase.from_world(world, seed=3)
        probe = p("1.0.0.0/16")
        assert country_shares(a, probe) == country_shares(b, probe)
        assert len(a) == len(b)

    def test_rates_validated(self, world):
        with pytest.raises(ValueError):
            GeoDatabase.from_world(world, noise_rate=2.0)
