"""Unit and property tests for repro.net.prefix, and for the prefix
arithmetic the oracle trie keeps in ``tests/oracles/prefixes.py``."""

import pytest
from hypothesis import given, strategies as st

from repro.net.prefix import Prefix, PrefixError, format_address, parse_address

from tests.oracles.prefixes import bit_at, contains, last_address, netmask, overlaps


class TestParseAddress:
    def test_v4_basic(self):
        assert parse_address("10.0.0.1") == (4, (10 << 24) + 1)

    def test_v4_extremes(self):
        assert parse_address("0.0.0.0") == (4, 0)
        assert parse_address("255.255.255.255") == (4, (1 << 32) - 1)

    @pytest.mark.parametrize(
        "bad", ["", "1.2.3", "1.2.3.4.5", "256.0.0.1", "01.2.3.4", "a.b.c.d", "1.2.3.-4"]
    )
    def test_v4_invalid(self, bad):
        with pytest.raises(PrefixError):
            parse_address(bad)

    def test_v6_full(self):
        version, value = parse_address("2001:db8:0:0:0:0:0:1")
        assert version == 6
        assert value == (0x20010DB8 << 96) + 1

    def test_v6_compressed(self):
        assert parse_address("2001:db8::1") == parse_address("2001:db8:0:0:0:0:0:1")
        assert parse_address("::") == (6, 0)
        assert parse_address("::1") == (6, 1)

    def test_v6_embedded_v4(self):
        version, value = parse_address("::ffff:1.2.3.4")
        assert version == 6
        assert value == (0xFFFF << 32) + (1 << 24) + (2 << 16) + (3 << 8) + 4

    @pytest.mark.parametrize("bad", ["::1::2", "1:2:3", "2001:db8:::1", "g::1"])
    def test_v6_invalid(self, bad):
        with pytest.raises(PrefixError):
            parse_address(bad)


class TestFormatAddress:
    def test_v4(self):
        assert format_address(4, (192 << 24) + (168 << 16) + 1) == "192.168.0.1"

    def test_v6_compression(self):
        assert format_address(6, 1) == "::1"
        assert format_address(6, 0x20010DB8 << 96) == "2001:db8::"

    def test_out_of_range(self):
        with pytest.raises(PrefixError):
            format_address(4, 1 << 32)

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_v4_roundtrip(self, value):
        assert parse_address(format_address(4, value)) == (4, value)

    @given(st.integers(min_value=0, max_value=(1 << 128) - 1))
    def test_v6_roundtrip(self, value):
        assert parse_address(format_address(6, value)) == (6, value)


class TestPrefixConstruction:
    def test_parse(self):
        prefix = Prefix.parse("10.0.0.0/8")
        assert (prefix.version, prefix.value, prefix.length) == (4, 10 << 24, 8)

    def test_host_bits_rejected(self):
        with pytest.raises(PrefixError):
            Prefix.parse("10.0.0.1/8")

    def test_bad_length(self):
        with pytest.raises(PrefixError):
            Prefix.parse("10.0.0.0/33")
        with pytest.raises(PrefixError):
            Prefix.parse("10.0.0.0/-1")

    def test_str_roundtrip(self):
        for text in ("0.0.0.0/0", "10.0.0.0/8", "192.168.1.0/24", "2001:db8::/32"):
            assert str(Prefix.parse(text)) == text


class TestPrefixArithmetic:
    def test_num_addresses(self):
        assert Prefix.parse("10.0.0.0/8").num_addresses() == 1 << 24
        assert Prefix.parse("10.0.0.1/32").num_addresses() == 1

    def test_first_last(self):
        prefix = Prefix.parse("10.0.0.0/24")
        assert prefix.first_address() == 10 << 24
        assert last_address(prefix) == (10 << 24) + 255

    def test_contains_prefix(self):
        big = Prefix.parse("10.0.0.0/8")
        small = Prefix.parse("10.1.0.0/16")
        assert contains(big, small)
        assert not contains(small, big)
        assert contains(big, big)

    def test_contains_disjoint(self):
        assert not contains(Prefix.parse("10.0.0.0/8"), Prefix.parse("11.0.0.0/8"))

    def test_contains_cross_family(self):
        assert not contains(Prefix.parse("10.0.0.0/8"), Prefix.parse("::/8"))

    def test_overlaps(self):
        a = Prefix.parse("10.0.0.0/8")
        b = Prefix.parse("10.5.0.0/16")
        c = Prefix.parse("11.0.0.0/8")
        assert overlaps(a, b) and overlaps(b, a)
        assert not overlaps(a, c)

    def test_split(self):
        low, high = Prefix.parse("10.0.0.0/8").split()
        assert str(low) == "10.0.0.0/9"
        assert str(high) == "10.128.0.0/9"

    def test_split_host_rejected(self):
        with pytest.raises(PrefixError):
            Prefix.parse("10.0.0.1/32").split()

    def test_subnets(self):
        subs = Prefix.parse("10.0.0.0/22").subnets(24)
        assert [str(s) for s in subs] == [
            "10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24", "10.0.3.0/24",
        ]

    def test_subnets_invalid(self):
        with pytest.raises(PrefixError):
            Prefix.parse("10.0.0.0/24").subnets(8)

    def test_bit_at(self):
        prefix = Prefix.parse("128.0.0.0/1")
        assert bit_at(prefix, 0) == 1
        assert bit_at(Prefix.parse("0.0.0.0/0"), 0) == 0

    def test_ordering(self):
        prefixes = [
            Prefix.parse("10.0.0.0/16"),
            Prefix.parse("10.0.0.0/8"),
            Prefix.parse("9.0.0.0/8"),
        ]
        ordered = sorted(prefixes)
        assert [str(p) for p in ordered] == ["9.0.0.0/8", "10.0.0.0/8", "10.0.0.0/16"]


@st.composite
def prefixes_v4(draw, max_length=28):
    length = draw(st.integers(min_value=0, max_value=max_length))
    value = draw(st.integers(min_value=0, max_value=(1 << 32) - 1))
    mask = ((1 << length) - 1) << (32 - length) if length else 0
    return Prefix(4, value & mask, length)


class TestPrefixProperties:
    @given(prefixes_v4())
    def test_parse_str_roundtrip(self, prefix):
        assert Prefix.parse(str(prefix)) == prefix

    @given(prefixes_v4(max_length=27))
    def test_split_partitions(self, prefix):
        low, high = prefix.split()
        assert contains(prefix, low) and contains(prefix, high)
        assert low.num_addresses() + high.num_addresses() == prefix.num_addresses()
        assert last_address(low) + 1 == high.first_address()
        assert not overlaps(low, high)

    @given(prefixes_v4(), prefixes_v4())
    def test_contains_antisymmetric(self, a, b):
        if contains(a, b) and contains(b, a):
            assert a == b

    @given(prefixes_v4())
    def test_netmask_hostmask_disjoint(self, prefix):
        assert netmask(prefix) & prefix.hostmask() == 0
        assert netmask(prefix) | prefix.hostmask() == (1 << 32) - 1
