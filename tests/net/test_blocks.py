"""Unit tests for the §3.2.1 block splitter of ``tests/oracles/prefixes.py``."""

from repro.net.prefix import Prefix

from tests.oracles.prefixes import (
    Block,
    covered_by_more_specifics,
    overlaps,
    split_into_blocks,
    total_addresses,
)


def p(text):
    return Prefix.parse(text)


class TestCoveredByMoreSpecifics:
    def test_simple_cover(self):
        prefixes = [p("10.0.0.0/8"), p("10.0.0.0/9"), p("10.128.0.0/9")]
        assert covered_by_more_specifics(prefixes) == {p("10.0.0.0/8")}

    def test_no_cover(self):
        prefixes = [p("10.0.0.0/8"), p("10.0.0.0/9")]
        assert covered_by_more_specifics(prefixes) == set()

    def test_nested_cover(self):
        # /8 covered by /9 + two /10s.
        prefixes = [
            p("10.0.0.0/8"),
            p("10.0.0.0/9"),
            p("10.128.0.0/10"),
            p("10.192.0.0/10"),
        ]
        assert covered_by_more_specifics(prefixes) == {p("10.0.0.0/8")}

    def test_empty(self):
        assert covered_by_more_specifics([]) == set()


class TestSplitIntoBlocks:
    def test_single_prefix(self):
        blocks = split_into_blocks([p("10.0.0.0/8")])
        assert blocks == [Block(p("10.0.0.0/8"), p("10.0.0.0/8"))]

    def test_more_specific_carves_hole(self):
        blocks = split_into_blocks([p("10.0.0.0/8"), p("10.0.0.0/9")])
        owners = {str(b.prefix): str(b.owner) for b in blocks}
        assert owners == {
            "10.0.0.0/9": "10.0.0.0/9",
            "10.128.0.0/9": "10.0.0.0/8",
        }

    def test_deep_more_specific(self):
        blocks = split_into_blocks([p("10.0.0.0/8"), p("10.64.0.0/16")])
        by_owner = {}
        for block in blocks:
            by_owner.setdefault(str(block.owner), []).append(block)
        # /16 owns exactly its own addresses.
        assert total_addresses(by_owner["10.64.0.0/16"]) == 1 << 16
        # /8 owns the rest.
        assert total_addresses(by_owner["10.0.0.0/8"]) == (1 << 24) - (1 << 16)

    def test_covered_prefix_owns_nothing(self):
        prefixes = [p("10.0.0.0/8"), p("10.0.0.0/9"), p("10.128.0.0/9")]
        blocks = split_into_blocks(prefixes)
        owners = {block.owner for block in blocks}
        assert p("10.0.0.0/8") not in owners
        assert total_addresses(blocks) == 1 << 24

    def test_disjoint_prefixes(self):
        blocks = split_into_blocks([p("10.0.0.0/8"), p("11.0.0.0/8")])
        assert len(blocks) == 2
        assert total_addresses(blocks) == 2 << 24

    def test_duplicates_ignored(self):
        blocks = split_into_blocks([p("10.0.0.0/8"), p("10.0.0.0/8")])
        assert len(blocks) == 1

    def test_empty(self):
        assert split_into_blocks([]) == []

    def test_v6_filtered_out_in_v4_mode(self):
        assert split_into_blocks([p("2001:db8::/32")]) == []

    def test_blocks_sorted_and_disjoint(self):
        prefixes = [p("10.0.0.0/8"), p("10.32.0.0/11"), p("10.32.0.0/16"),
                    p("9.0.0.0/8")]
        blocks = split_into_blocks(prefixes)
        for left, right in zip(blocks, blocks[1:]):
            assert left.prefix.sort_key() < right.prefix.sort_key()
            assert not overlaps(left.prefix, right.prefix)
