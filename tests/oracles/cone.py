"""The customer cone by definition (paper §3, after Luckie et al.).

* The *transit suffix* of an observed path is its longest run of
  provider→customer links ending at the origin (at least the origin).
* An AS's customer cone is the AS itself plus every AS after it on
  some observed path's transit suffix. Only observed paths count: the
  cone is never the relationship graph's transitive closure.
* An AS's prefix cone is every observed prefix originated by a member
  of its cone, and its cone addresses are the addresses those prefixes
  own (each record carries its prefix's owned, non-overlapping count).

The columnar kernel (:mod:`repro.perf.cone`, through
:class:`repro.perf.cache.ViewComputation`) is held to these.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.sanitize import PathRecord, RelationshipOracle
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix


def transit_suffix(path: ASPath, oracle: RelationshipOracle) -> tuple[int, ...]:
    """The path's maximal provider→customer tail (VP→origin order)."""
    asns = path.asns
    start = len(asns) - 1
    while start > 0 and oracle.relationship(asns[start - 1], asns[start]) == "p2c":
        start -= 1
    return asns[start:]


def customer_cones(
    records: Iterable[PathRecord], oracle: RelationshipOracle
) -> dict[int, set[int]]:
    """Every AS on a transit suffix → itself plus the ASes after it."""
    cones: dict[int, set[int]] = {}
    for record in records:
        suffix = transit_suffix(record.path, oracle)
        for position, asn in enumerate(suffix):
            cones.setdefault(asn, {asn}).update(suffix[position + 1:])
    return cones


def prefix_cones(
    records: Iterable[PathRecord], oracle: RelationshipOracle
) -> dict[int, set[Prefix]]:
    """Every cone holder → the observed prefixes its members originate."""
    records = list(records)
    originated: dict[int, set[Prefix]] = {}
    for record in records:
        originated.setdefault(record.origin, set()).add(record.prefix)
    return {
        asn: set().union(*(originated.get(member, ()) for member in members))
        for asn, members in customer_cones(records, oracle).items()
    }


def total_addresses(records: Iterable[PathRecord]) -> int:
    """The distinct addresses of the records' prefixes: the share
    denominator of a view."""
    return sum({record.prefix: record.addresses for record in records}.values())


def cone_addresses(
    records: Iterable[PathRecord], oracle: RelationshipOracle
) -> dict[int, int]:
    """Every cone holder → the addresses its prefix cone owns."""
    records = list(records)
    owned = {record.prefix: record.addresses for record in records}
    return {
        asn: sum(owned[prefix] for prefix in prefixes)
        for asn, prefixes in prefix_cones(records, oracle).items()
    }
