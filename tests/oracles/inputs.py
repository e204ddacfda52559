"""Inputs shared by the test matrix and the kernel tests: one record
builder, one store builder over either backend, relationship oracles
over explicit edge sets, the bgpsim 13-AS tree, generated record sets,
and the column shapes the oracles return."""

from __future__ import annotations

from dataclasses import replace

from hypothesis import strategies as st

from repro.bgp.collectors import VantagePoint
from repro.core.sanitize import FilterReport, PathRecord, PathSet
from repro.net.asn import is_public_asn
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.perf.pathstore import PathStore
from repro.perf.spill import MmapPathStore, SpillWriter
from repro.relationships.inference import InferredRelationships

BACKENDS = ("memory", "mmap")

#: per-prefix address counts: zero, small, and IPv6 counts past 2^64
ADDRESSES = (0, 1, 256, 768, 2 ** 64 + 3, 2 ** 96, 2 ** 100 + 1)


def record(vp_ip, path, prefix, addresses=256, vp_country="US",
           prefix_country="NL", collector="c"):
    """A sanitized record; ``path`` is a sequence of ASNs or a
    space-separated string, and the VP sits at its first AS."""
    asns = tuple(int(asn) for asn in (
        path.split() if isinstance(path, str) else path
    ))
    return PathRecord(
        vp=VantagePoint(vp_ip, asns[0], collector),
        vp_country=vp_country,
        prefix=Prefix.parse(prefix),
        prefix_country=prefix_country,
        path=ASPath(asns),
        addresses=addresses,
    )


def build_store(records, backend, directory):
    """The records in a store of ``backend``: in memory, or spilled to
    ``directory`` and mapped back."""
    if backend == "memory":
        return PathStore(records)
    writer = SpillWriter(str(directory))
    report = FilterReport()
    writer.prepare(report)
    for rec in records:
        writer.add(rec)
    writer.seal(len(records), report)
    return MmapPathStore(str(directory))


def path_set(store):
    """A path set over ``store``'s records."""
    return PathSet(store.records, FilterReport(), store)


class EdgeOracle:
    """A relationship oracle over an explicit provider→customer set."""

    def __init__(self, edges):
        self.edges = frozenset(edges)

    def relationship(self, left, right):
        if (left, right) in self.edges:
            return "p2c"
        if (right, left) in self.edges:
            return "c2p"
        return None

    def p2c_edges(self):
        return self.edges


class RelationshipOnly:
    """The same oracle without the bulk ``p2c_edges()`` form."""

    def __init__(self, edges):
        self._oracle = EdgeOracle(edges)

    def relationship(self, left, right):
        return self._oracle.relationship(left, right)


def as_table(columns):
    """A ``(asns, values)`` score table as an ``{asn: value}`` dict in
    row order, holding the columns' ``.tolist()`` items."""
    asns, values = columns
    return dict(zip(asns.tolist(), values.tolist()))


def as_cones(pairs):
    """Distinct ``(holder, member)`` cone pairs as ``{holder: {members}}``."""
    holders, members = pairs
    cones = {}
    for holder, member in zip(holders.tolist(), members.tolist()):
        cones.setdefault(holder, set()).add(member)
    return cones


# -- the bgpsim 13-AS tree (SNIPPETS.md, snippet 3) --------------------------

#: the fixture's relationship lines: ``a|b|-1`` = a provides transit
#: to b, ``a|b|0`` = peers
AS_REL = """\
1|2|-1
1|3|-1
1|4|-1
1|5|-1
2|3|0
4|5|0
2|6|-1
2|7|-1
3|8|-1
3|9|-1
4|10|-1
4|11|-1
5|12|-1
5|13|-1
"""

#: the ASes of country BB; the rest are in AA
BB = {4, 5, 10, 11, 12, 13}

#: each VP's valley-free path to every origin AS
PATHS = {
    1: {
        1: "1", 2: "1 2", 3: "1 3", 4: "1 4", 5: "1 5",
        6: "1 2 6", 7: "1 2 7", 8: "1 3 8", 9: "1 3 9",
        10: "1 4 10", 11: "1 4 11", 12: "1 5 12", 13: "1 5 13",
    },
    6: {
        6: "6", 2: "6 2", 7: "6 2 7", 3: "6 2 3", 8: "6 2 3 8",
        9: "6 2 3 9", 1: "6 2 1", 4: "6 2 1 4", 10: "6 2 1 4 10",
        11: "6 2 1 4 11", 5: "6 2 1 5", 12: "6 2 1 5 12",
        13: "6 2 1 5 13",
    },
    12: {
        12: "12", 5: "12 5", 13: "12 5 13", 4: "12 5 4",
        10: "12 5 4 10", 11: "12 5 4 11", 1: "12 5 1", 2: "12 5 1 2",
        6: "12 5 1 2 6", 7: "12 5 1 2 7", 3: "12 5 1 3",
        8: "12 5 1 3 8", 9: "12 5 1 3 9",
    },
}


def tree_country(asn):
    return "BB" if asn in BB else "AA"


def tree_oracle():
    """The tree's relationships as an inferred-relationship oracle."""
    labels = {}
    for line in AS_REL.splitlines():
        left, right, kind = (int(field) for field in line.split("|"))
        labels[(left, right)] = "p2c" if kind == -1 else "p2p"
    return InferredRelationships(clique=frozenset({1}), labels=labels)


def tree_records():
    """Every VP's path to every origin's /24 (256 addresses)."""
    return [
        record(
            f"10.0.0.{vp}", path, f"10.{origin}.0.0/24",
            vp_country=tree_country(vp), prefix_country=tree_country(origin),
            collector="rrc00",
        )
        for vp, paths in PATHS.items()
        for origin, path in paths.items()
    ]


def tree_paths():
    return PathSet(records=tree_records(), report=FilterReport())


# -- generated record sets --------------------------------------------------


@st.composite
def record_sets(draw):
    """Small random record sets over ASNs 1-8 and a random
    provider→customer edge set: up to twelve VPs, up to six prefixes,
    each with a home origin and an address count. Some draws give a
    prefix several origins (MOAS) or its records different counts
    (the store keeps the first)."""
    prefixes = draw(st.integers(min_value=1, max_value=6))
    counts = draw(st.lists(
        st.sampled_from(ADDRESSES), min_size=prefixes, max_size=prefixes,
    ))
    homes = draw(st.lists(
        st.integers(min_value=1, max_value=8),
        min_size=prefixes, max_size=prefixes,
    ))
    moas = draw(st.booleans())
    conflicting = draw(st.booleans())
    vps = draw(st.integers(min_value=1, max_value=12))
    rows = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=vps - 1),
            st.lists(st.integers(min_value=1, max_value=8),
                     min_size=1, max_size=5),
            st.integers(min_value=0, max_value=prefixes - 1),
            st.sampled_from(ADDRESSES),
        ),
        max_size=60,
    ))
    edges = draw(st.sets(
        st.tuples(st.integers(min_value=1, max_value=8),
                  st.integers(min_value=1, max_value=8)),
        max_size=24,
    ))
    records = [
        record(
            f"10.0.0.{vp + 1}",
            path if moas else path[:-1] + [homes[prefix]],
            f"10.{prefix}.0.0/16",
            own if conflicting else counts[prefix],
        )
        for vp, path, prefix, own in rows
    ]
    return records, edges


#: eight distinct public ASNs up to 2**32 - 1, spread far wider than
#: any drawn record set has tokens: a store over them numbers its ASes
#: by sorting, never by a presence table
wide_labels = st.lists(
    st.integers(min_value=1, max_value=2**32 - 1).filter(is_public_asn),
    min_size=8, max_size=8, unique=True,
).filter(lambda labels: max(labels) - min(labels) > 2**20)


def relabelled(records, labels):
    """The records with every ASN ``a`` of the pool 1-8 (paths and VP
    ASes) renamed ``labels[a - 1]``."""
    return [
        replace(
            rec,
            vp=replace(rec.vp, asn=labels[rec.vp.asn - 1]),
            path=ASPath(tuple(labels[asn - 1] for asn in rec.path)),
        )
        for rec in records
    ]


# -- hand-built corners ------------------------------------------------------

#: 1 provides transit to 2 and 3, 2 to 4 and 5, 3 to 6
EDGES = {(1, 2), (1, 3), (2, 4), (2, 5), (3, 6)}

#: eight public ASNs spread over the 32-bit space
WIDE = (7, 1299, 3356, 6453, 65552, 397213, 2**31 + 5, 4199999999)


def _many_vps():
    """40 VPs with irregular shares for AS 1: long trimmed windows,
    whose last bits depend on summing one value at a time."""
    rows = []
    for vp in range(40):
        ip = f"10.0.1.{vp + 1}"
        rows.append(record(ip, [100 + vp, 1, 2], f"10.{vp}.1.0/24",
                           3 * 2 ** (vp % 7) + 1))
        rows.append(record(ip, [100 + vp, 3], f"10.{vp}.2.0/24", 7 * vp + 5))
        if vp % 3:
            rows.append(record(ip, [100 + vp, 1, 4], f"10.{vp}.3.0/24",
                               11 * vp + 2))
    return rows


#: 10.1/16 is originated by 4 and by 5: cone members' prefix sets
#: overlap, so the closure sums distinct (holder, prefix) pairs
_MOAS = [
    record("10.0.0.1", [1, 2, 4], "10.1.0.0/16"),
    record("10.0.0.2", [1, 2, 5], "10.1.0.0/16"),
    record("10.0.0.2", [1, 2, 5], "10.2.0.0/16", 768),
]

#: hand-built corner cases, name → records, for the test matrix and the
#: kernel tests (their relationships: :func:`corner_relationships`)
CORNERS = {
    "moas": _MOAS,
    # one prefix, two counts: the store keeps the first
    "conflicting_counts": [
        record("10.0.0.1", [1, 2, 4], "10.1.0.0/16", 256),
        record("10.0.0.2", [3, 6], "10.6.0.0/16", 768),
        record("10.0.0.2", [1, 2, 4], "10.1.0.0/16", 1024),
    ],
    # AS 3 transits only toward an empty prefix: its CTI cells are 0.0
    "zero_addresses": [
        record("10.0.0.1", [1, 3, 6], "10.6.0.0/16", 0),
        record("10.0.0.1", [1, 2, 4], "10.4.0.0/16", 256),
        record("10.0.0.2", [2, 5], "10.5.0.0/16", 0),
    ],
    # VP .3's only record weighs 0: under address weighting it is no
    # hegemony VP at all (n = 2)
    "zero_weight_vp": [
        record("10.0.0.1", [1, 2], "10.1.0.0/16", 256),
        record("10.0.0.2", [1, 3], "10.2.0.0/16", 256),
        record("10.0.0.3", [4, 2], "10.3.0.0/16", 0),
        record("10.0.0.1", [5], "10.3.0.0/16", 0),
    ],
    # VP .3 reaches everything over peer links: all its suffixes are
    # the bare origin, yet it is one of the n = 3 CTI VPs
    "origin_only_suffixes": [
        record("10.0.0.1", [1, 2, 4], "10.4.0.0/16"),
        record("10.0.0.2", [2, 4], "10.4.0.0/16"),
        record("10.0.0.3", [6, 4], "10.4.0.0/16"),
    ],
    "repeated_asns": [
        record("10.0.0.1", [1, 1, 2], "10.1.0.0/16"),
        record("10.0.0.1", [1, 2, 1, 3], "10.2.0.0/16", 768),
        record("10.0.0.2", [7, 3, 7], "10.2.0.0/16", 768),
    ],
    "single_vp": [
        record("10.0.0.1", [9, 5, 8], "10.8.0.0/22", 768),
        record("10.0.0.1", [9, 7], "10.7.0.0/24", 256),
    ],
    "many_vps": _many_vps(),
    # the paper's Figure 2: AS 1 scores 1, 2/3 and 1/3 per VP
    "figure2": [
        record("10.0.0.1", [1, 8], "10.8.0.0/24"),
        record("10.0.0.1", [1, 9], "10.9.0.0/24"),
        record("10.0.0.1", [1, 7, 6], "10.6.0.0/24"),
        record("10.0.0.2", [2, 1, 8], "10.8.0.0/24"),
        record("10.0.0.2", [2, 1, 9], "10.9.0.0/24"),
        record("10.0.0.2", [2, 6], "10.6.0.0/24"),
        record("10.0.0.3", [3, 1, 8], "10.8.0.0/24"),
        record("10.0.0.3", [3, 9], "10.9.0.0/24"),
        record("10.0.0.3", [3, 6], "10.6.0.0/24"),
    ],
    # IPv6 path weights past 2^64
    "ipv6_weights": [
        record("10.0.0.1", [1, 2], "10.1.0.0/16", 2 ** 96),
        record("10.0.0.1", [1, 3], "10.2.0.0/16", 2 ** 64 + 1),
        record("10.0.0.2", [4, 3], "10.2.0.0/16", 2 ** 64 + 1),
        record("10.0.0.2", [4, 2], "10.1.0.0/16", 2 ** 96),
    ],
    # past 2**53 closures hold Python ints: float64 would round, int64
    # would overflow
    "ipv6_counts": [
        record("10.0.0.1", [1, 2, 4], "10.4.0.0/16", 2 ** 100 + 1),
        record("10.0.0.1", [1, 2, 5], "10.5.0.0/16", 2 ** 64 + 3),
        record("10.0.0.2", [1, 3, 6], "10.6.0.0/16", 2 ** 96),
    ],
    # a total one below 2**53 still sums in int64, exactly
    "below_2_53": [
        record("10.0.0.1", [1, 2, 4], "10.4.0.0/16", 2 ** 52),
        record("10.0.0.2", [1, 3, 6], "10.6.0.0/16", 2 ** 52 - 1),
    ],
    # one cell with 2^53 then fifteen 1s: added in order each 1 is lost
    # to rounding, a pairwise sum would keep some of them
    "terms_in_order": [record("10.0.0.1", [1, 2], "10.0.0.0/16", 2 ** 53)] + [
        record("10.0.0.1", [1, 2], f"10.{i}.0.0/16", 1) for i in range(1, 16)
    ],
    "relationship_only": [
        record("10.0.0.1", [1, 2, 4], "10.4.0.0/16"),
        record("10.0.0.2", [3, 1, 2, 5], "10.5.0.0/16", 768),
        record("10.0.0.3", [6, 3, 1, 2, 4], "10.4.0.0/16"),
    ],
    # the MOAS records over wide 32-bit ASNs: numbered by sorting, never
    # by a presence table
    "wide_asns": relabelled(_MOAS, WIDE),
    # no record selected
    "empty_view": [record("10.0.0.1", [1, 2, 4], "10.4.0.0/16")],
}


def corner_relationships(name):
    """The corner's oracle over :data:`EDGES` (relabelled for
    ``wide_asns``), without ``p2c_edges()`` for ``relationship_only``."""
    edges = EDGES
    if name == "wide_asns":
        edges = {(WIDE[left - 1], WIDE[right - 1]) for left, right in EDGES}
    if name == "relationship_only":
        return RelationshipOnly(edges)
    return EdgeOracle(edges)
