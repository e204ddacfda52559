"""IP prefixes as immutable value objects.

A :class:`Prefix` is a CIDR block in either address family, stored as a
``(version, network_int, length)`` triple. Its arithmetic (splitting,
subnetting, address counting) is integer arithmetic on the network
value; the world generators carve their address plans with it.

The paper's pipeline handles hundreds of millions of announcements keyed
by prefix; our simulator handles millions, so prefixes are hashable and
interned-friendly (two equal prefixes always compare and hash equal).
"""

from __future__ import annotations

from dataclasses import dataclass


class PrefixError(ValueError):
    """Raised for malformed prefix or address literals and invalid ops."""


_V4_BITS = 32
_V6_BITS = 128
_V4_MAX = (1 << _V4_BITS) - 1
_V6_MAX = (1 << _V6_BITS) - 1


def _bits(version: int) -> int:
    if version == 4:
        return _V4_BITS
    if version == 6:
        return _V6_BITS
    raise PrefixError(f"unsupported IP version: {version!r}")


def parse_address(text: str) -> tuple[int, int]:
    """Parse a textual IP address into ``(version, integer_value)``.

    Supports dotted-quad IPv4 and RFC 4291 IPv6 (including ``::``
    compression and embedded IPv4 tails).
    """
    if not isinstance(text, str) or not text:
        raise PrefixError(f"not an address: {text!r}")
    if ":" in text:
        return 6, _parse_v6(text)
    return 4, _parse_v4(text)


def _parse_v4(text: str) -> int:
    parts = text.split(".")
    if len(parts) != 4:
        raise PrefixError(f"invalid IPv4 address: {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit() or (len(part) > 1 and part[0] == "0") or len(part) > 3:
            raise PrefixError(f"invalid IPv4 octet in {text!r}")
        octet = int(part)
        if octet > 255:
            raise PrefixError(f"IPv4 octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def _parse_v6(text: str) -> int:
    if text.count("::") > 1:
        raise PrefixError(f"multiple '::' in IPv6 address: {text!r}")
    head, sep, tail = text.partition("::")
    head_groups = head.split(":") if head else []
    tail_groups = tail.split(":") if tail else []
    if not sep and len(head_groups) != 8:
        raise PrefixError(f"invalid IPv6 address: {text!r}")

    def expand(groups: list[str]) -> list[int]:
        out: list[int] = []
        for group in groups:
            if "." in group:
                if group is not groups[-1]:
                    raise PrefixError(f"embedded IPv4 not at tail: {text!r}")
                v4 = _parse_v4(group)
                out.append(v4 >> 16)
                out.append(v4 & 0xFFFF)
                continue
            if not group or len(group) > 4:
                raise PrefixError(f"invalid IPv6 group in {text!r}")
            try:
                out.append(int(group, 16))
            except ValueError as exc:
                raise PrefixError(f"invalid IPv6 group in {text!r}") from exc
        return out

    head_vals = expand(head_groups)
    tail_vals = expand(tail_groups)
    if sep:
        missing = 8 - len(head_vals) - len(tail_vals)
        if missing < 1:
            raise PrefixError(f"'::' expands to nothing in {text!r}")
        groups16 = head_vals + [0] * missing + tail_vals
    else:
        groups16 = head_vals
    if len(groups16) != 8:
        raise PrefixError(f"invalid IPv6 address: {text!r}")
    value = 0
    for group in groups16:
        value = (value << 16) | group
    return value


def format_address(version: int, value: int) -> str:
    """Render an integer address back to canonical text."""
    bits = _bits(version)
    if not 0 <= value <= (1 << bits) - 1:
        raise PrefixError(f"address value out of range for v{version}: {value}")
    if version == 4:
        return (
            f"{value >> 24}.{(value >> 16) & 0xFF}."
            f"{(value >> 8) & 0xFF}.{value & 0xFF}"
        )
    groups = [(value >> shift) & 0xFFFF for shift in range(112, -1, -16)]
    # Longest run of zero groups gets '::' compression, per RFC 5952.
    best_start, best_len = -1, 0
    run_start, run_len = -1, 0
    for index, group in enumerate(groups):
        if group == 0:
            if run_start < 0:
                run_start, run_len = index, 0
            run_len += 1
            if run_len > best_len:
                best_start, best_len = run_start, run_len
        else:
            run_start, run_len = -1, 0
    if best_len < 2:
        return ":".join(f"{g:x}" for g in groups)
    head = ":".join(f"{g:x}" for g in groups[:best_start])
    tail = ":".join(f"{g:x}" for g in groups[best_start + best_len :])
    return f"{head}::{tail}"


@dataclass(frozen=True, slots=True, order=False)
class Prefix:
    """A CIDR block: ``version`` (4 or 6), network ``value``, and ``length``.

    Instances are canonical: host bits below ``length`` must be zero
    (``Prefix.parse`` raises otherwise).
    """

    version: int
    value: int
    length: int

    def __post_init__(self) -> None:
        bits = _bits(self.version)
        if not 0 <= self.length <= bits:
            raise PrefixError(f"invalid prefix length /{self.length} for v{self.version}")
        if not 0 <= self.value <= (1 << bits) - 1:
            raise PrefixError(f"prefix value out of range: {self.value}")
        if self.value & self.hostmask():
            raise PrefixError(
                f"host bits set in {format_address(self.version, self.value)}/{self.length}"
            )

    # -- constructors ---------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"`` (or IPv6 equivalent) strictly."""
        if not isinstance(text, str) or "/" not in text:
            raise PrefixError(f"not a prefix literal: {text!r}")
        addr_text, _, len_text = text.rpartition("/")
        if not len_text.isdigit():
            raise PrefixError(f"invalid prefix length in {text!r}")
        version, value = parse_address(addr_text)
        return cls(version, value, int(len_text))

    # -- arithmetic ------------------------------------------------------

    def bits(self) -> int:
        """Address-family width in bits (32 or 128)."""
        return _bits(self.version)

    def hostmask(self) -> int:
        """Integer mask of the host bits."""
        return (1 << (self.bits() - self.length)) - 1

    def num_addresses(self) -> int:
        """Number of addresses covered by this prefix."""
        return 1 << (self.bits() - self.length)

    def first_address(self) -> int:
        """Lowest address in the block, as an integer."""
        return self.value

    def split(self) -> tuple["Prefix", "Prefix"]:
        """The two halves one bit more specific than this prefix."""
        if self.length >= self.bits():
            raise PrefixError(f"cannot split a host prefix {self}")
        child_len = self.length + 1
        half = 1 << (self.bits() - child_len)
        return (
            Prefix(self.version, self.value, child_len),
            Prefix(self.version, self.value | half, child_len),
        )

    def subnets(self, new_length: int) -> list["Prefix"]:
        """All subnets of this prefix at ``new_length``."""
        if new_length < self.length or new_length > self.bits():
            raise PrefixError(f"cannot subnet /{self.length} into /{new_length}")
        step = 1 << (self.bits() - new_length)
        count = 1 << (new_length - self.length)
        return [
            Prefix(self.version, self.value + index * step, new_length)
            for index in range(count)
        ]

    # -- ordering & rendering ---------------------------------------------

    def sort_key(self) -> tuple[int, int, int]:
        """Stable total order: family, then network value, then length."""
        return (self.version, self.value, self.length)

    def __lt__(self, other: "Prefix") -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        return f"{format_address(self.version, self.value)}/{self.length}"

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"

