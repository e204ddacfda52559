"""Unit and property tests for the radix trie of ``tests/oracles/prefixes.py``."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.prefix import Prefix, PrefixError

from tests.oracles.prefixes import PrefixTrie, contains, overlaps


def p(text):
    return Prefix.parse(text)


class TestBasics:
    def test_insert_get(self):
        trie = PrefixTrie()
        trie.insert(p("10.0.0.0/8"), "a")
        assert trie.get(p("10.0.0.0/8")) == "a"
        assert trie.get(p("10.0.0.0/16")) is None
        assert len(trie) == 1

    def test_overwrite_keeps_size(self):
        trie = PrefixTrie()
        trie.insert(p("10.0.0.0/8"), "a")
        trie.insert(p("10.0.0.0/8"), "b")
        assert trie.get(p("10.0.0.0/8")) == "b"
        assert len(trie) == 1

    def test_remove(self):
        trie = PrefixTrie()
        trie.insert(p("10.0.0.0/8"), "a")
        assert trie.remove(p("10.0.0.0/8")) == "a"
        assert len(trie) == 0
        with pytest.raises(KeyError):
            trie.remove(p("10.0.0.0/8"))

    def test_version_mismatch(self):
        trie = PrefixTrie(4)
        with pytest.raises(PrefixError):
            trie.insert(p("2001:db8::/32"), "x")

    def test_bad_version(self):
        with pytest.raises(PrefixError):
            PrefixTrie(5)


class TestLongestMatch:
    def test_most_specific_wins(self):
        trie = PrefixTrie()
        trie.insert(p("10.0.0.0/8"), "big")
        trie.insert(p("10.1.0.0/16"), "small")
        assert trie.longest_match(p("10.1.2.0/24")) == (p("10.1.0.0/16"), "small")
        assert trie.longest_match(p("10.2.0.0/16")) == (p("10.0.0.0/8"), "big")

    def test_no_match(self):
        trie = PrefixTrie()
        trie.insert(p("10.0.0.0/8"), "a")
        assert trie.longest_match(p("11.0.0.0/8")) is None

    def test_lookup_address(self):
        trie = PrefixTrie()
        trie.insert(p("10.0.0.0/8"), "a")
        hit = trie.lookup_address(4, (10 << 24) + 99)
        assert hit == (p("10.0.0.0/8"), "a")
        assert trie.lookup_address(4, 11 << 24) is None
        assert trie.lookup_address(6, 10 << 24) is None


class TestSubtree:
    def test_subtree_and_more_specifics(self):
        trie = PrefixTrie()
        for text in ("10.0.0.0/8", "10.0.0.0/9", "10.128.0.0/9", "11.0.0.0/8"):
            trie.insert(p(text), text)
        subtree = dict(trie.subtree(p("10.0.0.0/8")))
        assert set(subtree) == {p("10.0.0.0/8"), p("10.0.0.0/9"), p("10.128.0.0/9")}
        more = dict(trie.more_specifics(p("10.0.0.0/8")))
        assert set(more) == {p("10.0.0.0/9"), p("10.128.0.0/9")}

    def test_items_ordered(self):
        trie = PrefixTrie()
        for text in ("11.0.0.0/8", "10.0.0.0/8", "10.0.0.0/16"):
            trie.insert(p(text), text)
        keys = [str(k) for k, _ in trie.items()]
        assert keys == ["10.0.0.0/8", "10.0.0.0/16", "11.0.0.0/8"]


class TestCoveredByMoreSpecifics:
    def test_fully_covered(self):
        trie = PrefixTrie()
        for text in ("10.0.0.0/8", "10.0.0.0/9", "10.128.0.0/9"):
            trie.insert(p(text), text)
        assert trie.is_covered_by_more_specifics(p("10.0.0.0/8"))

    def test_partially_covered(self):
        trie = PrefixTrie()
        for text in ("10.0.0.0/8", "10.0.0.0/9"):
            trie.insert(p(text), text)
        assert not trie.is_covered_by_more_specifics(p("10.0.0.0/8"))

    def test_deep_cover(self):
        trie = PrefixTrie()
        trie.insert(p("10.0.0.0/8"), "root")
        for sub in p("10.0.0.0/8").subnets(10):
            trie.insert(sub, str(sub))
        assert trie.is_covered_by_more_specifics(p("10.0.0.0/8"))

    def test_no_specifics(self):
        trie = PrefixTrie()
        trie.insert(p("10.0.0.0/8"), "a")
        assert not trie.is_covered_by_more_specifics(p("10.0.0.0/8"))


@st.composite
def prefix_sets(draw):
    base = p("10.0.0.0/8")
    count = draw(st.integers(min_value=1, max_value=24))
    out = set()
    for _ in range(count):
        length = draw(st.integers(min_value=8, max_value=20))
        value = draw(st.integers(min_value=0, max_value=(1 << 12) - 1))
        mask_bits = length - 8
        chunk = value & (((1 << mask_bits) - 1) if mask_bits else 0)
        out.add(Prefix(4, (10 << 24) | (chunk << (32 - length)), length))
    return sorted(out, key=Prefix.sort_key)


class TestDecomposeProperties:
    @settings(max_examples=60)
    @given(prefix_sets())
    def test_decompose_partitions_stored_space(self, prefixes):
        trie = PrefixTrie()
        for prefix in prefixes:
            trie.insert(prefix, prefix)
        blocks = list(trie.decompose())
        # Blocks never overlap.
        for i, (left, _) in enumerate(blocks):
            for right, _ in blocks[i + 1 :]:
                assert not overlaps(left, right)
        # Owners are stored prefixes containing their block.
        for block, owner in blocks:
            assert owner in set(prefixes)
            assert contains(owner, block)
        # Total block addresses == addresses of the union of prefixes
        # (computed independently via toplevel prefixes).
        tops = [
            q for q in prefixes
            if not any(contains(o, q) and o != q for o in prefixes)
        ]
        expected = sum(t.num_addresses() for t in tops)
        assert sum(b.num_addresses() for b, _ in blocks) == expected

    @settings(max_examples=60)
    @given(prefix_sets())
    def test_decompose_owner_is_most_specific(self, prefixes):
        trie = PrefixTrie()
        for prefix in prefixes:
            trie.insert(prefix, prefix)
        for block, owner in trie.decompose():
            for other in prefixes:
                if contains(other, block):
                    assert other.length <= owner.length
