"""Network primitives: ASNs, prefixes, AS paths.

This subpackage is the foundation layer of the reproduction. It contains
no paper-specific logic; everything here is a general-purpose building
block (ASN classes, CIDR arithmetic, AS-path hygiene) used by the BGP
simulator, the geolocation pipeline, and the ranking metrics. The radix
trie and the §3.2.1 block splitter that the geolocation tests check the
interval pass against live in ``tests/oracles/prefixes.py``.
"""

from repro.net.asn import (
    AS_TRANS,
    ASNRegistry,
    PRIVATE_ASN_RANGES,
    RESERVED_ASNS,
    is_documentation_asn,
    is_private_asn,
    is_public_asn,
    is_reserved_asn,
)
from repro.net.aspath import ASPath, ASPathError
from repro.net.prefix import Prefix, PrefixError, format_address, parse_address

__all__ = [
    "AS_TRANS",
    "ASNRegistry",
    "ASPath",
    "ASPathError",
    "PRIVATE_ASN_RANGES",
    "Prefix",
    "PrefixError",
    "RESERVED_ASNS",
    "format_address",
    "is_documentation_asn",
    "is_private_asn",
    "is_public_asn",
    "is_reserved_asn",
    "parse_address",
]
