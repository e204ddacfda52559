"""Autonomous System Numbers and an IANA-like allocation registry.

The sanitization pipeline (paper §3.1, Table 1) discards AS paths that
contain ASNs "that IANA reports as unassigned". Since we have no live
IANA registry, :class:`ASNRegistry` plays that role for the simulated
world: the topology generator allocates ASNs through it, and the
anomaly injector deliberately inserts unallocated ASNs so the filter
has something real to catch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

#: Special-purpose ASNs that are never assignable (subset of RFC 7249 family).
RESERVED_ASNS: frozenset[int] = frozenset({0, 112, 23456, 65535, 4294967295})

#: AS_TRANS, used by 2-byte speakers for 4-byte peers (RFC 6793).
AS_TRANS = 23456

#: Private-use ASN ranges (RFC 6996).
PRIVATE_ASN_RANGES: tuple[tuple[int, int], ...] = (
    (64512, 65534),
    (4200000000, 4294967294),
)

#: Documentation-only ASN ranges (RFC 5398).
_DOCUMENTATION_RANGES: tuple[tuple[int, int], ...] = (
    (64496, 64511),
    (65536, 65551),
)

MAX_ASN = 4294967295


def is_private_asn(asn: int) -> bool:
    """Whether ``asn`` falls in an RFC 6996 private-use range."""
    return any(low <= asn <= high for low, high in PRIVATE_ASN_RANGES)


def is_documentation_asn(asn: int) -> bool:
    """Whether ``asn`` falls in an RFC 5398 documentation range."""
    return any(low <= asn <= high for low, high in _DOCUMENTATION_RANGES)


def is_reserved_asn(asn: int) -> bool:
    """Whether ``asn`` is special-purpose, private, or documentation-only."""
    return asn in RESERVED_ASNS or is_private_asn(asn) or is_documentation_asn(asn)


def is_public_asn(asn: int) -> bool:
    """Whether ``asn`` is syntactically valid and publicly assignable."""
    return 0 < asn <= MAX_ASN and not is_reserved_asn(asn)


@dataclass
class ASNRegistry:
    """Tracks which public ASNs the simulated IANA has assigned.

    The registry is the source of truth for the "unallocated" filter:
    a path mentioning an ASN outside :attr:`allocated` is rejected the
    same way the paper rejects paths with IANA-unassigned ASNs.
    """

    allocated: set[int] = field(default_factory=set)
    _next_candidate: int = 1

    def allocate(self, asn: int | None = None) -> int:
        """Assign a specific public ASN, or the lowest free one.

        Raises ``ValueError`` for reserved, out-of-range, or
        already-assigned ASNs.
        """
        if asn is None:
            asn = self._find_free()
        if not is_public_asn(asn):
            raise ValueError(f"ASN {asn} is reserved or out of range")
        if asn in self.allocated:
            raise ValueError(f"ASN {asn} already allocated")
        self.allocated.add(asn)
        return asn

    def allocate_many(self, count: int) -> list[int]:
        """Assign ``count`` fresh ASNs in ascending order."""
        return [self.allocate() for _ in range(count)]

    def is_allocated(self, asn: int) -> bool:
        """Whether the simulated IANA has assigned this ASN."""
        return asn in self.allocated

    def unallocated_sample(self, count: int, start: int = 100000) -> list[int]:
        """Deterministic public-but-unassigned ASNs for anomaly injection."""
        sample: list[int] = []
        candidate = start
        while len(sample) < count:
            if candidate > MAX_ASN:
                raise ValueError("exhausted ASN space looking for unallocated ASNs")
            if is_public_asn(candidate) and candidate not in self.allocated:
                sample.append(candidate)
            candidate += 1
        return sample

    def update(self, asns: Iterable[int]) -> None:
        """Bulk-register externally chosen ASNs (e.g. a curated world)."""
        for asn in asns:
            if not is_public_asn(asn):
                raise ValueError(f"ASN {asn} is reserved or out of range")
            self.allocated.add(asn)

    def _find_free(self) -> int:
        candidate = self._next_candidate
        while candidate in self.allocated or not is_public_asn(candidate):
            candidate += 1
        self._next_candidate = candidate + 1
        return candidate

    def __contains__(self, asn: int) -> bool:
        return asn in self.allocated

    def __len__(self) -> int:
        return len(self.allocated)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.allocated))
