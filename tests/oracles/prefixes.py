"""Prefixes in a binary radix trie, and the §3.2.1 split into owned blocks.

Paper §3.2.1: "Before we geolocate the prefixes, we split them into
non-overlapping blocks of addresses mapped to their most specific
prefix. We then filter prefixes that are completely covered by more
specifics."

:class:`PrefixTrie` answers most-specific matches, subtree walks and
the covered-by-more-specifics test bit by bit; :func:`split_into_blocks`
walks one trie of the announced prefixes into maximal CIDR
:class:`Block` chunks, each owned by its most specific covering
announcement. The interval pass of :mod:`repro.geo` (painted address
intervals) is held to these through ``tests/geo/trie_oracle.py``.

One trie holds one address family; mixing families raises. The bit and
containment arithmetic the trie and these checks need lives here too,
as functions over :class:`~repro.net.prefix.Prefix`: no ``src/`` code
asks whether one prefix contains another.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generic, Iterable, Iterator, Sequence, TypeVar

from repro.net.prefix import Prefix, PrefixError

V = TypeVar("V")


def netmask(prefix: Prefix) -> int:
    """Integer mask of the network bits."""
    return ((1 << prefix.bits()) - 1) ^ prefix.hostmask()


def last_address(prefix: Prefix) -> int:
    """Highest address in the block, as an integer."""
    return prefix.value | prefix.hostmask()


def contains(outer: Prefix, inner: Prefix) -> bool:
    """Whether ``inner`` is equal to or more specific than ``outer``."""
    if inner.version != outer.version or inner.length < outer.length:
        return False
    return (inner.value & netmask(outer)) == outer.value


def overlaps(a: Prefix, b: Prefix) -> bool:
    """Whether the two blocks share any address."""
    return contains(a, b) or contains(b, a)


def bit_at(prefix: Prefix, depth: int) -> int:
    """The address bit at ``depth`` (0 = most significant)."""
    if not 0 <= depth < prefix.bits():
        raise PrefixError(f"bit depth {depth} out of range")
    return (prefix.value >> (prefix.bits() - 1 - depth)) & 1


@dataclass(slots=True)
class _Node(Generic[V]):
    prefix: Prefix | None = None
    value: V | None = None
    children: list["_Node[V] | None"] = field(default_factory=lambda: [None, None])


class PrefixTrie(Generic[V]):
    """Maps prefixes to values with longest-prefix-match semantics."""

    def __init__(self, version: int = 4) -> None:
        if version not in (4, 6):
            raise PrefixError(f"unsupported IP version: {version!r}")
        self._version = version
        self._root: _Node[V] = _Node()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _check(self, prefix: Prefix) -> None:
        if prefix.version != self._version:
            raise PrefixError(
                f"v{prefix.version} prefix in v{self._version} trie: {prefix}"
            )

    def _path(self, prefix: Prefix) -> Iterator[_Node[V]]:
        """The existing nodes from the root toward ``prefix``'s node."""
        self._check(prefix)
        node: _Node[V] | None = self._root
        for depth in range(prefix.length + 1):
            if node is None:
                return
            yield node
            if depth < prefix.length:
                node = node.children[bit_at(prefix, depth)]

    def _node(self, prefix: Prefix) -> _Node[V] | None:
        path = list(self._path(prefix))
        return path[-1] if len(path) == prefix.length + 1 else None

    def insert(self, prefix: Prefix, value: V) -> None:
        """Insert or overwrite the value stored at exactly ``prefix``."""
        self._check(prefix)
        node = self._root
        for depth in range(prefix.length):
            bit = bit_at(prefix, depth)
            if node.children[bit] is None:
                node.children[bit] = _Node()
            node = node.children[bit]  # type: ignore[assignment]
        if node.prefix is None:
            self._size += 1
        node.prefix, node.value = prefix, value

    def remove(self, prefix: Prefix) -> V:
        """Remove the entry stored at exactly ``prefix`` (``KeyError``
        when absent) and return its value."""
        node = self._node(prefix)
        if node is None or node.prefix is None:
            raise KeyError(str(prefix))
        value = node.value
        node.prefix = node.value = None
        self._size -= 1
        return value  # type: ignore[return-value]

    def get(self, prefix: Prefix) -> V | None:
        """The value stored at exactly ``prefix``, else ``None``."""
        node = self._node(prefix)
        return node.value if node is not None and node.prefix == prefix else None

    def longest_match(self, prefix: Prefix) -> tuple[Prefix, V] | None:
        """The most specific stored prefix containing ``prefix``."""
        stored = [node for node in self._path(prefix) if node.prefix is not None]
        return (stored[-1].prefix, stored[-1].value) if stored else None  # type: ignore[return-value]

    def lookup_address(self, version: int, value: int) -> tuple[Prefix, V] | None:
        """The most specific stored prefix containing the address."""
        if version != self._version:
            return None
        return self.longest_match(Prefix(version, value, 32 if version == 4 else 128))

    def subtree(self, prefix: Prefix) -> Iterator[tuple[Prefix, V]]:
        """Stored entries equal to or more specific than ``prefix``, in
        address order."""
        node = self._node(prefix)
        if node is not None:
            yield from _walk(node)

    def more_specifics(self, prefix: Prefix) -> Iterator[tuple[Prefix, V]]:
        """Stored entries strictly more specific than ``prefix``."""
        return (
            (stored, value) for stored, value in self.subtree(prefix)
            if stored.length > prefix.length
        )

    def items(self) -> Iterator[tuple[Prefix, V]]:
        """Every stored entry in address order."""
        return _walk(self._root)

    def is_covered_by_more_specifics(self, prefix: Prefix) -> bool:
        """Whether strictly more specific stored prefixes cover every
        address of ``prefix``."""
        node = self._node(prefix)
        return node is not None and _halves_covered(node)

    def decompose(self) -> Iterator[tuple[Prefix, Prefix]]:
        """Non-overlapping ``(block, owner)`` CIDR pairs covering all
        stored space, ``owner`` the most specific stored prefix that
        contains ``block``."""
        return _decompose(self._root, Prefix(self._version, 0, 0), None)


def _walk(node: _Node[V]) -> Iterator[tuple[Prefix, V]]:
    if node.prefix is not None:
        yield node.prefix, node.value  # type: ignore[misc]
    for child in node.children:
        if child is not None:
            yield from _walk(child)


def _halves_covered(node: _Node) -> bool:
    """Whether both halves below ``node`` are covered by stored
    prefixes (a stored prefix covers its whole subtree)."""
    return all(
        child is not None and (child.prefix is not None or _halves_covered(child))
        for child in node.children
    )


def _decompose(
    node: _Node, here: Prefix, owner: Prefix | None
) -> Iterator[tuple[Prefix, Prefix]]:
    owner = node.prefix if node.prefix is not None else owner
    if all(child is None for child in node.children):
        if owner is not None:
            yield here, owner
        return
    for child, half in zip(node.children, here.split()):
        if child is not None:
            yield from _decompose(child, half, owner)
        elif owner is not None:
            yield half, owner


@dataclass(frozen=True, slots=True)
class Block:
    """A CIDR chunk owned by its most specific announced prefix."""

    prefix: Prefix
    owner: Prefix

    def num_addresses(self) -> int:
        return self.prefix.num_addresses()


def build_trie(prefixes: Iterable[Prefix], version: int = 4) -> PrefixTrie[Prefix]:
    """The prefixes of one family in a trie keyed by themselves."""
    trie: PrefixTrie[Prefix] = PrefixTrie(version)
    for prefix in prefixes:
        if prefix.version == version:
            trie.insert(prefix, prefix)
    return trie


def covered_by_more_specifics(
    prefixes: Sequence[Prefix], version: int = 4
) -> set[Prefix]:
    """The prefixes whose every address a more specific one covers:
    they own no block, so the paper drops them before geolocation."""
    trie = build_trie(prefixes, version)
    return {
        prefix for prefix in prefixes
        if prefix.version == version and trie.is_covered_by_more_specifics(prefix)
    }


def split_into_blocks(prefixes: Sequence[Prefix], version: int = 4) -> list[Block]:
    """The announced space as non-overlapping owned blocks, in address
    order."""
    trie = build_trie(set(prefixes), version)
    blocks = [Block(block, owner) for block, owner in trie.decompose()]
    return sorted(blocks, key=lambda block: block.prefix.sort_key())


def total_addresses(blocks: Iterable[Block]) -> int:
    """Addresses across blocks (they never overlap)."""
    return sum(block.num_addresses() for block in blocks)
