"""The interval pass against the trie oracle (``tests/geo/trie_oracle.py``).

Hypothesis draws nested announced prefixes and database entries in
both families, repeated ``assign``/``unassign`` of one prefix included,
with IPv6 lengths past /62. Each case spans at most 52 bits of prefix
length, so the oracle's float sums stay exact and every answer must be
equal, dict order included.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.geo.database import GeoDatabase
from repro.geo.prefix_geo import geolocate_prefixes
from repro.net.prefix import Prefix, PrefixError
from repro.topology import GeneratorConfig, generate_world
from repro.topology.catalog import build_world
from tests.geo.queries import country_shares, lookup, majority_country
from tests.geo.trie_oracle import TrieGeoDatabase, trie_geolocate
from tests.oracles.prefixes import last_address

COUNTRIES = ("AU", "JP", "NL", "US")
THRESHOLDS = (0.0, 0.25, 0.4, 0.5, 0.75)


def outcome_fields(outcome):
    """All five outcome fields, dicts as ordered item lists."""
    return (
        outcome.threshold,
        list(outcome.country_of.items()),
        outcome.no_consensus,
        outcome.covered,
        list(outcome.owned_addresses.items()),
        list(outcome.plurality_of.items()),
    )


@st.composite
def geo_cases(draw):
    """Database operations, announced prefixes and probe addresses, all
    inside one base prefix of a drawn family."""
    version = draw(st.sampled_from((4, 6)))
    bits = 32 if version == 4 else 128
    span = draw(st.integers(min_value=0, max_value=min(52, bits)))
    low = draw(st.integers(min_value=0, max_value=bits - span))
    if version == 6 and draw(st.booleans()):
        low = max(low, min(63, bits - span))  # reach lengths past /62
    high = low + span
    base = Prefix(version, draw(st.integers(0, (1 << low) - 1)) << (bits - low), low)
    pool = [base]

    def nested():
        parent = draw(st.sampled_from(pool))
        length = draw(st.integers(parent.length, high))
        extra = draw(st.integers(0, (1 << (length - parent.length)) - 1))
        prefix = Prefix(version, parent.value | extra << (bits - length), length)
        pool.append(prefix)
        return prefix

    ops = []
    for _ in range(draw(st.integers(0, 12))):
        if ops and draw(st.integers(0, 3)) == 0:
            prefix = draw(st.sampled_from(ops))[1]  # the same block again
        else:
            prefix = nested()
        country = draw(st.sampled_from(COUNTRIES + (None,)))
        ops.append((country, prefix))
    announced = [nested() for _ in range(draw(st.integers(0, 10)))]
    probes = [
        draw(st.integers(base.value, last_address(base))) for _ in range(4)
    ] + [p.value for p in pool] + [last_address(p) for p in pool]
    return version, ops, announced, probes


def build(version, ops):
    interval, trie = GeoDatabase(version), TrieGeoDatabase(version)
    for country, prefix in ops:
        for db in (interval, trie):
            if country is None:
                db.unassign(prefix)
            else:
                db.assign(prefix, country)
    return interval, trie


class TestAgainstTrieOracle:
    @settings(max_examples=200, deadline=None)
    @given(geo_cases())
    def test_queries_match(self, case):
        version, ops, announced, probes = case
        interval, trie = build(version, ops)
        assert len(interval) == len(trie)
        for value in probes:
            assert lookup(interval, version, value) == trie.lookup(version, value)
        for prefix in announced + [prefix for _, prefix in ops]:
            assert list(country_shares(interval, prefix).items()) == list(
                trie.country_shares(prefix).items()
            )
            for threshold in (0.0, 0.25, 0.4):
                assert majority_country(interval, prefix, threshold) == (
                    trie.majority_country(prefix, threshold)
                )

    @settings(max_examples=200, deadline=None)
    @given(geo_cases(), st.sampled_from(THRESHOLDS))
    def test_geolocation_matches(self, case, threshold):
        version, ops, announced, _ = case
        interval, trie = build(version, ops)
        assert outcome_fields(
            geolocate_prefixes(announced, interval, threshold, version)
        ) == outcome_fields(trie_geolocate(announced, trie, threshold, version))

    @settings(max_examples=50, deadline=None)
    @given(geo_cases())
    def test_other_family_queries(self, case):
        version, ops, announced, _ = case
        interval, trie = build(version, ops)
        other = 6 if version == 4 else 4
        probe = Prefix(other, 0, 0)
        assert country_shares(interval, probe) == trie.country_shares(probe) == {None: 1.0}
        assert lookup(interval, other, 0) is None
        with pytest.raises(PrefixError):
            interval.assign(probe, "US")
        assert outcome_fields(
            geolocate_prefixes(announced, interval, version=other)
        ) == outcome_fields(trie_geolocate(announced, trie, version=other))


class TestWorldsAgainstTrieOracle:
    """End to end: ``from_world`` plus the §3.2.1 pass on ``default``
    and on a dual-stack world, in both families."""

    @pytest.fixture(scope="class", params=["default", "dual-stack"])
    def world(self, request):
        if request.param == "default":
            return build_world("default", 42)
        return generate_world(GeneratorConfig(ipv6=True), seed=4)

    @pytest.mark.parametrize("version", [4, 6])
    def test_world_matches(self, world, version):
        interval = GeoDatabase.from_world(world, 0.3, 0.2, 7, version)
        trie = TrieGeoDatabase.from_world(world, 0.3, 0.2, 7, version)
        assert len(interval) == len(trie)
        prefixes = world.announced_prefixes()
        assert outcome_fields(
            geolocate_prefixes(prefixes, interval, 0.5, version)
        ) == outcome_fields(trie_geolocate(prefixes, trie, 0.5, version))
        for prefix in prefixes[::25]:
            assert list(country_shares(interval, prefix).items()) == list(
                trie.country_shares(prefix).items()
            )
