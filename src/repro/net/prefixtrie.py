"""A binary radix trie over prefixes.

Most-specific matching, subtree walks and covered-by-more-specifics
detection (§3.2.1: 1.2 % of the paper's April 2021 prefixes are
covered). :mod:`repro.net.blocks` splits announced prefixes into owned
blocks with it. The pipeline does not use it: the §3.2.1 geolocation
pass paints address intervals (:mod:`repro.geo.intervals`), the
sanitizer reads that pass's covered set, and the trie-based block pass
is the geolocation tests' oracle.

One trie holds one address family; mixing families raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generic, Iterator, TypeVar

from repro.net.prefix import Prefix, PrefixError

V = TypeVar("V")


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

    @property
    def version(self) -> int:
        """The address family this trie holds (4 or 6)."""
        return self._version

    def __len__(self) -> int:
        return self._size

    def __contains__(self, prefix: Prefix) -> bool:
        return self.get(prefix) is not None or self._has_exact(prefix)

    # -- mutation ---------------------------------------------------------

    def insert(self, prefix: Prefix, value: V) -> None:
        """Insert or overwrite the value stored at exactly ``prefix``."""
        node = self._descend_create(prefix)
        if node.prefix is None:
            self._size += 1
        node.prefix = prefix
        node.value = value

    def remove(self, prefix: Prefix) -> V:
        """Remove the entry stored at exactly ``prefix`` and return it.

        Raises ``KeyError`` when absent. Interior nodes are left in
        place; the trie never shrinks structurally (fine for our
        build-once, query-many workloads).
        """
        node = self._descend(prefix)
        if node is None or node.prefix is None:
            raise KeyError(str(prefix))
        assert node.value is not None or node.prefix is not None
        value = node.value
        node.prefix = None
        node.value = None
        self._size -= 1
        return value  # type: ignore[return-value]

    # -- queries ----------------------------------------------------------

    def get(self, prefix: Prefix) -> V | None:
        """The value stored at exactly ``prefix``, else ``None``."""
        node = self._descend(prefix)
        if node is not None and node.prefix == prefix:
            return node.value
        return None

    def longest_match(self, prefix: Prefix) -> tuple[Prefix, V] | None:
        """Most-specific stored prefix containing ``prefix`` (could be it)."""
        self._check_version(prefix)
        node = self._root
        best: tuple[Prefix, V] | None = None
        depth = 0
        while node is not None:
            if node.prefix is not None:
                best = (node.prefix, node.value)  # type: ignore[assignment]
            if depth >= prefix.length:
                break
            node = node.children[prefix.bit_at(depth)]  # type: ignore[assignment]
            depth += 1
        return best

    def lookup_address(self, version: int, value: int) -> tuple[Prefix, V] | None:
        """Most-specific stored prefix containing the integer address."""
        if version != self._version:
            return None
        host = Prefix(version, value, 32 if version == 4 else 128)
        return self.longest_match(host)

    def subtree(self, prefix: Prefix) -> Iterator[tuple[Prefix, V]]:
        """All stored entries equal to or more specific than ``prefix``."""
        self._check_version(prefix)
        node = self._descend(prefix)
        if node is None:
            return
        yield from self._walk(node)

    def more_specifics(self, prefix: Prefix) -> Iterator[tuple[Prefix, V]]:
        """Stored entries strictly more specific than ``prefix``."""
        for stored, value in self.subtree(prefix):
            if stored.length > prefix.length:
                yield (stored, value)

    def is_covered_by_more_specifics(self, prefix: Prefix) -> bool:
        """Whether strictly-more-specific stored prefixes cover every
        address of ``prefix`` (the paper filters such prefixes, §3.2.1)."""
        self._check_version(prefix)
        node = self._descend(prefix)
        if node is None:
            return False
        return self._covers(node, at_target=True)

    def decompose(self) -> Iterator[tuple[Prefix, Prefix]]:
        """Yield non-overlapping ``(block, owner)`` CIDR pairs covering all
        stored address space, where ``owner`` is the most specific stored
        prefix containing the block. Single O(nodes) sweep."""
        root_prefix = Prefix(self._version, 0, 0)
        yield from self._decompose(self._root, root_prefix, None)

    def _decompose(
        self, node: _Node[V], here: Prefix, owner: Prefix | None
    ) -> Iterator[tuple[Prefix, Prefix]]:
        if node.prefix is not None:
            owner = node.prefix
        left, right = node.children
        if left is None and right is None:
            if owner is not None:
                yield (here, owner)
            return
        low, high = here.split()
        if left is not None:
            yield from self._decompose(left, low, owner)
        elif owner is not None:
            yield (low, owner)
        if right is not None:
            yield from self._decompose(right, high, owner)
        elif owner is not None:
            yield (high, owner)

    def items(self) -> Iterator[tuple[Prefix, V]]:
        """All stored entries in trie (address) order."""
        yield from self._walk(self._root)

    def keys(self) -> Iterator[Prefix]:
        """All stored prefixes in trie order."""
        for prefix, _ in self._walk(self._root):
            yield prefix

    # -- internals --------------------------------------------------------

    def _check_version(self, prefix: Prefix) -> None:
        if prefix.version != self._version:
            raise PrefixError(
                f"v{prefix.version} prefix in v{self._version} trie: {prefix}"
            )

    def _descend(self, prefix: Prefix) -> _Node[V] | None:
        self._check_version(prefix)
        node: _Node[V] | None = self._root
        for depth in range(prefix.length):
            if node is None:
                return None
            node = node.children[prefix.bit_at(depth)]
        return node

    def _descend_create(self, prefix: Prefix) -> _Node[V]:
        self._check_version(prefix)
        node = self._root
        for depth in range(prefix.length):
            bit = prefix.bit_at(depth)
            child = node.children[bit]
            if child is None:
                child = _Node()
                node.children[bit] = child
            node = child
        return node

    def _has_exact(self, prefix: Prefix) -> bool:
        node = self._descend(prefix)
        return node is not None and node.prefix == prefix

    def _walk(self, node: _Node[V]) -> Iterator[tuple[Prefix, V]]:
        stack: list[_Node[V]] = [node]
        while stack:
            current = stack.pop()
            if current.prefix is not None:
                yield (current.prefix, current.value)  # type: ignore[misc]
            # Push right then left so iteration comes out address-ordered.
            for child in (current.children[1], current.children[0]):
                if child is not None:
                    stack.append(child)

    def _covers(self, node: _Node[V], at_target: bool) -> bool:
        """Whether the subtree below ``node`` fully covers its block using
        stored prefixes strictly below the original target prefix."""
        if not at_target and node.prefix is not None:
            return True
        left, right = node.children
        if left is None or right is None:
            return False
        return self._covers(left, at_target=False) and self._covers(
            right, at_target=False
        )
