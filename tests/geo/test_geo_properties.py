"""Property-based tests for the geolocation substrate."""

from hypothesis import given, settings, strategies as st

from repro.geo.database import GeoDatabase
from repro.geo.prefix_geo import geolocate_prefixes
from repro.net.prefix import Prefix

from tests.geo.queries import country_shares, majority_country
from tests.oracles.prefixes import split_into_blocks, total_addresses

COUNTRIES = ("US", "CA", "MX", "FR", "DE")


@st.composite
def databases_and_prefixes(draw):
    """A random geo database over 10.0.0.0/8 plus announced prefixes."""
    db = GeoDatabase()
    db.assign(Prefix.parse("10.0.0.0/8"), draw(st.sampled_from(COUNTRIES)))
    n_blocks = draw(st.integers(min_value=0, max_value=12))
    for _ in range(n_blocks):
        length = draw(st.integers(min_value=9, max_value=18))
        chunk = draw(st.integers(min_value=0, max_value=(1 << 10) - 1))
        bits = length - 8
        value = (10 << 24) | ((chunk & ((1 << bits) - 1)) << (32 - length))
        db.assign(Prefix(4, value, length), draw(st.sampled_from(COUNTRIES)))
    n_prefixes = draw(st.integers(min_value=1, max_value=10))
    prefixes = []
    for _ in range(n_prefixes):
        length = draw(st.integers(min_value=9, max_value=20))
        chunk = draw(st.integers(min_value=0, max_value=(1 << 12) - 1))
        bits = length - 8
        value = (10 << 24) | ((chunk & ((1 << bits) - 1)) << (32 - length))
        prefixes.append(Prefix(4, value, length))
    return db, sorted(set(prefixes), key=Prefix.sort_key)


class TestGeoProperties:
    @settings(max_examples=60, deadline=None)
    @given(databases_and_prefixes())
    def test_shares_sum_to_one(self, case):
        db, prefixes = case
        for prefix in prefixes:
            total = sum(country_shares(db, prefix).values())
            assert abs(total - 1.0) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(databases_and_prefixes())
    def test_outcome_partitions_announced_set(self, case):
        db, prefixes = case
        outcome = geolocate_prefixes(prefixes, db)
        assigned = set(outcome.country_of)
        split = outcome.no_consensus
        covered = outcome.covered
        assert assigned | split | covered == set(prefixes)
        assert not assigned & split
        assert not assigned & covered
        assert not split & covered

    @settings(max_examples=40, deadline=None)
    @given(databases_and_prefixes(),
           st.floats(min_value=0.05, max_value=0.45),
           st.floats(min_value=0.5, max_value=0.94))
    def test_tighter_threshold_assigns_fewer(self, case, low, high):
        db, prefixes = case
        loose = geolocate_prefixes(prefixes, db, threshold=low)
        tight = geolocate_prefixes(prefixes, db, threshold=high)
        # A prefix assigned under the tight threshold is also assigned
        # (to the same country) under the loose one... unless the loose
        # threshold allowed a *different* plurality tie to pass — but
        # both thresholds pick the same argmax, so containment holds.
        for prefix, country in tight.country_of.items():
            assert loose.country_of.get(prefix) == country
        assert len(tight.country_of) <= len(loose.country_of)

    @settings(max_examples=40, deadline=None)
    @given(databases_and_prefixes())
    def test_owned_addresses_sum_matches_span(self, case):
        db, prefixes = case
        outcome = geolocate_prefixes(prefixes, db)
        # the union of the prefixes, as the oracle's owned blocks
        union = total_addresses(split_into_blocks(prefixes))
        assert sum(outcome.owned_addresses.values()) == union

    @settings(max_examples=40, deadline=None)
    @given(databases_and_prefixes())
    def test_majority_country_agrees_with_shares(self, case):
        db, prefixes = case
        for prefix in prefixes:
            majority = majority_country(db, prefix)
            if majority is not None:
                shares = country_shares(db, prefix)
                assert shares[majority] > 0.5
