"""Columnar customer cones and CTI: CC* and CTI straight from store columns.

The cone metrics (CCG/CCI/CCN/CCO, :mod:`repro.core.cone`) and the CTI
baseline (:mod:`repro.core.cti`) both read the transit suffix of every
observed path. Paths repeat across records and suffixes repeat across
paths (the medium world's 216k distinct paths carry under 4k distinct
suffixes), so this module resolves suffixes once per store and edge
set, and a view reads them as ids through its record positions — no
record object is built and no ``ASPath`` is hashed.

* :func:`intern_suffixes` numbers each distinct path's transit suffix
  over the store's shared AS codes
  (:meth:`~repro.perf.pathstore.PathStore.asn_codes`: the ``n`` sorted
  distinct ASNs, one code per token). The suffix starts after the
  path's last non-p2c link (:func:`suffix_starts`): every adjacent
  pair is packed into the code ``left * n + right``, the p2c edges
  into the same codes (an edge naming an ASN absent from the store
  has none, so it matches nothing), and one ``np.isin`` tests them —
  by a lookup table when ``n**2`` is small. Suffixes are then interned
  origin first, one :func:`~repro.net.aspath.dense_codes` per depth
  over ``(id of the suffix one hop shorter) * n + code``, so two paths
  share an id exactly when their suffixes are equal tuples, and the
  ids follow (shorter id, ASN) order as before.
  :meth:`repro.perf.pathstore.PathStore.transit_suffixes` memoises the
  table on the store.

Why the values cannot differ from the reference:

* **Cones.** :func:`repro.core.cone.cones_from_suffixes` is idempotent
  per suffix, so feeding it each of a view's *distinct* suffixes once
  (:func:`view_suffixes`) builds exactly ``customer_cones(view.records)``.
* **Closure addresses.** :func:`address_profile` reads each distinct
  (origin, prefix) of a view once, through the ``record_prefix``
  column and the prefix side table, which holds the one count every
  record of the prefix carries. When every prefix has a single origin
  in the view, cone members own disjoint prefix sets, so an AS's
  closure total is the sum of its members' per-origin totals
  (:func:`closure_totals`). A view in which some prefix has two
  origins (MOAS) keeps each origin's prefix ids instead, and an AS's
  total is over the union of its members' ids — the reference
  :func:`repro.core.cone.cone_addresses`'s prefix-set union. All sums
  are Python ints — IPv6 counts exceed int64 and float64 would round
  them.
* **CTI** (:func:`cti_scores`). Every record's transit hops expand, in
  record order and suffix order, into ``weight / k`` terms, each the
  same float division the reference performs; one ``np.bincount`` over
  the (VP, AS) cells ``np.unique`` numbers adds every cell's terms one
  at a time from 0.0, the reference's ``dict.get(asn, 0.0) + weight /
  k`` sequence. Zero-address records
  keep their 0.0 cells, so their ASes keep a row. ``n`` counts every
  VP with a record in the view, even one whose suffixes are all
  origin-only. Cells are divided by the view's address total, then
  trimmed by :func:`repro.perf.hegemony._trimmed`, which sums each
  window left to right like Python's ``sum``.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.core.hegemony import validate_trim
from repro.net.aspath import dense_codes
from repro.perf.hegemony import _trimmed

if TYPE_CHECKING:
    from repro.core.sanitize import RelationshipOracle
    from repro.perf.pathstore import PathStore


class SuffixTable(NamedTuple):
    """The interned transit suffixes of a store's distinct paths."""

    #: distinct path id → suffix id
    path_suffix: np.ndarray
    #: suffix id → the suffix (VP side first, origin last), plain ints
    suffixes: list[tuple[int, ...]]
    #: suffix id → its transit hops (every AS but the origin) as the
    #: range ``[hop_offsets, hop_offsets + hop_lengths)`` of the hop
    #: columns
    hop_offsets: np.ndarray
    hop_lengths: np.ndarray
    #: per hop: the AS as an index into ``asns``, and its distance from
    #: the origin (``k``, a float)
    hop_asn: np.ndarray
    hop_k: np.ndarray
    #: the sorted distinct transit ASNs
    asns: np.ndarray


def _pair_codes(codes: np.ndarray, offsets: np.ndarray, width: int) -> np.ndarray:
    """Every path's adjacent pairs of AS codes (one code per token,
    below ``width``), concatenated in order, each packed into one
    int64 ``left * width + right``."""
    pairs = codes[:-1].astype(np.int64) * width + codes[1:]
    # drop the phantom pairs straddling consecutive paths
    valid = np.ones(len(pairs), dtype=bool)
    valid[offsets[1:] - 1] = False
    return pairs[valid]


def _edge_codes(asns: np.ndarray, p2c: frozenset[tuple[int, int]]) -> np.ndarray:
    """The edges of ``p2c`` as pair codes over the sorted ``asns``; an
    edge naming an ASN absent from ``asns`` can match no pair, so it
    has no code."""
    if not p2c or not len(asns):
        return np.empty(0, dtype=np.int64)
    edges = np.fromiter(
        chain.from_iterable(p2c), dtype=np.int64, count=2 * len(p2c)
    ).reshape(-1, 2)
    at = np.minimum(np.searchsorted(asns, edges), len(asns) - 1)
    known = (asns[at] == edges).all(axis=1)
    return at[known, 0] * len(asns) + at[known, 1]


def suffix_starts(
    tokens: np.ndarray,
    offsets: np.ndarray,
    lengths: np.ndarray,
    p2c: frozenset[tuple[int, int]],
) -> np.ndarray:
    """Per path, the index its transit suffix starts at: the suffix is
    the longest tail whose adjacent pairs are all in ``p2c`` — ``start
    = (last non-p2c pair index) + 1``, or 0 when every pair is p2c."""
    return _suffix_starts(
        *dense_codes(np.asarray(tokens, dtype=np.int64)),
        np.asarray(offsets, dtype=np.int64),
        np.asarray(lengths, dtype=np.int64),
        p2c,
    )


def _suffix_starts(
    asns: np.ndarray,
    codes: np.ndarray,
    offsets: np.ndarray,
    lengths: np.ndarray,
    p2c: frozenset[tuple[int, int]],
) -> np.ndarray:
    """:func:`suffix_starts` over tokens given as ``codes`` into the
    sorted ``asns``.

    Every adjacent pair is tested against the edge set at once, both
    as pair codes (``np.isin`` looks them up in a table when the codes
    span few values); each path's last non-p2c pair is then found by
    bisecting its pair-range end into the sorted non-p2c positions.
    """
    starts = np.zeros(len(offsets), dtype=np.int64)
    if len(codes) == len(offsets):  # no path has a pair
        return starts
    plain = np.flatnonzero(~np.isin(
        _pair_codes(codes, offsets, len(asns)), _edge_codes(asns, p2c)
    ))
    if len(plain) == 0:
        return starts
    pair_counts = lengths - 1
    ends = np.cumsum(pair_counts)
    begins = ends - pair_counts
    slot = np.searchsorted(plain, ends) - 1
    last = plain[np.maximum(slot, 0)]
    in_range = (slot >= 0) & (last >= begins)
    return np.where(in_range, last - begins + 1, 0)


def intern_suffixes(
    store: "PathStore", p2c: frozenset[tuple[int, int]]
) -> SuffixTable:
    """Number the transit suffixes of every distinct path in ``store``
    under the edge set ``p2c`` (see the module docstring)."""
    tokens = np.asarray(store.tokens, dtype=np.int64)
    offsets = np.asarray(store.offsets, dtype=np.int64)
    lengths = np.asarray(store.lengths, dtype=np.int64)
    asns, codes = store.asn_codes()
    width = len(asns)
    starts = _suffix_starts(asns, codes, offsets, lengths, p2c)
    depth = lengths - starts
    ends = offsets + lengths
    # node[p]: the id of path p's suffix tail of the current depth;
    # ids are unique across depths, so the last one is the suffix's
    node = np.zeros(len(offsets), dtype=np.int64)
    base = 0
    for hop in range(1, int(depth.max(initial=0)) + 1):
        live = np.flatnonzero(depth >= hop)
        unique, inverse = dense_codes(node[live] * width + codes[ends[live] - hop])
        node[live] = base + inverse
        base += len(unique)
    _, first, path_suffix = np.unique(node, return_index=True, return_inverse=True)
    begin = offsets[first] + starts[first]
    size = depth[first]
    suffixes = [
        tuple(tokens[lo:hi].tolist())
        for lo, hi in zip(begin.tolist(), (begin + size).tolist())
    ]
    hop_lengths = size - 1
    hop_ends = np.cumsum(hop_lengths)
    hop_offsets = hop_ends - hop_lengths
    within = np.arange(int(hop_lengths.sum())) - np.repeat(
        hop_offsets, hop_lengths
    )
    hop_k = (np.repeat(hop_lengths, hop_lengths) - within).astype(np.float64)
    transit, hop_asn = dense_codes(tokens[np.repeat(begin, hop_lengths) + within])
    return SuffixTable(
        path_suffix, suffixes, hop_offsets, hop_lengths, hop_asn, hop_k, transit,
    )


def p2c_edges(
    store: "PathStore", oracle: "RelationshipOracle"
) -> frozenset[tuple[int, int]]:
    """The oracle's provider→customer pairs as a flat edge set: its own
    ``p2c_edges()`` when it has one, else one ``relationship()`` call
    per distinct adjacent pair in the store's paths."""
    edges = getattr(oracle, "p2c_edges", None)
    if edges is not None:
        return edges()
    asns, codes = store.asn_codes()
    offsets = np.asarray(store.offsets, dtype=np.int64)
    lefts, rights = np.divmod(
        np.unique(_pair_codes(codes, offsets, len(asns))), max(len(asns), 1)
    )
    pairs = zip(asns[lefts].tolist(), asns[rights].tolist())
    return frozenset(
        (left, right) for left, right in pairs
        if oracle.relationship(left, right) == "p2c"
    )


def view_suffixes(
    store: "PathStore", positions: np.ndarray, table: SuffixTable
) -> list[tuple[int, ...]]:
    """The distinct transit suffixes of the records at ``positions``."""
    ids = np.unique(table.path_suffix[store.record_path[positions]])
    return list(map(table.suffixes.__getitem__, ids.tolist()))


class AddressProfile(NamedTuple):
    """A view's destination addresses, read from its distinct (origin,
    prefix) pairs."""

    #: per origin AS, the addresses of the distinct prefixes it
    #: originates in the view
    per_origin: dict[int, int]
    #: the address total of the view's distinct prefixes
    total: int
    #: per origin AS, its prefix ids with their addresses — only when
    #: some prefix has two origins (MOAS), which makes the per-origin
    #: totals overlap; ``None`` otherwise
    moas: dict[int, dict[int, int]] | None


def address_profile(store: "PathStore", positions: np.ndarray) -> AddressProfile:
    """The :class:`AddressProfile` of the records at ``positions``
    (ascending): every distinct (origin, prefix) pair counts its
    prefix's addresses once, every distinct prefix once in the total."""
    origins = store.record_origin[positions]
    fids = store.record_prefix[positions]
    order = np.lexsort((fids, origins))
    origins, fids = origins[order], fids[order]
    pairs = np.flatnonzero(
        (np.diff(origins, prepend=-1) != 0) | (np.diff(fids, prepend=-1) != 0)
    )
    table = store.prefix_table
    rows = [
        (origin, fid, table[fid][2])
        for origin, fid in zip(origins[pairs].tolist(), fids[pairs].tolist())
    ]
    per_origin: dict[int, int] = {}
    prefixes: dict[int, int] = {}
    for origin, fid, count in rows:
        per_origin[origin] = per_origin.get(origin, 0) + count
        prefixes[fid] = count
    total = sum(prefixes.values())
    if len(prefixes) == len(rows):
        return AddressProfile(per_origin, total, None)
    moas: dict[int, dict[int, int]] = {}
    for origin, fid, count in rows:
        moas.setdefault(origin, {})[fid] = count
    return AddressProfile(per_origin, total, moas)


def closure_totals(
    cones: dict[int, set[int]], profile: AddressProfile
) -> dict[int, int]:
    """Per AS in ``cones``, the addresses of the prefixes its members
    originate: the sum of its members' per-origin totals, or under
    MOAS the union of their prefix ids (overlapping member prefix sets
    must not double count).

    Sums over the smaller side: a big cone holds many ASes that
    originate nothing in the view, so testing the (few) origins
    against its member set beats probing every member."""
    if profile.moas is not None:
        by_origin = profile.moas
        unions: dict[int, int] = {}
        for asn, members in cones.items():
            union: dict[int, int] = {}
            for member in members:
                union.update(by_origin.get(member, {}))
            unions[asn] = sum(union.values())
        return unions
    origin_addresses = profile.per_origin
    get = origin_addresses.get
    origin_items = list(origin_addresses.items())
    pivot = len(origin_items)
    totals: dict[int, int] = {}
    for asn, members in cones.items():
        size = len(members)
        if size == 1:
            totals[asn] = get(asn, 0)
        elif size <= pivot:
            totals[asn] = sum(get(member, 0) for member in members)
        else:
            totals[asn] = sum(
                count for origin, count in origin_items if origin in members
            )
    return totals


def cti_scores(
    store: "PathStore",
    positions: np.ndarray,
    table: SuffixTable,
    total: int,
    trim: float,
) -> dict[int, float]:
    """``repro.core.cti.cti_scores`` over the records at ``positions``
    (ascending), with ``total`` the view's address total."""
    validate_trim(trim)
    if total <= 0 or len(positions) == 0:
        return {}
    vps = np.asarray(store.record_vp, dtype=np.int64)[positions]
    vp_count = int(np.count_nonzero(np.bincount(vps)))
    sids = table.path_suffix[store.record_path[positions]]
    counts = table.hop_lengths[sids]
    ends = np.cumsum(counts)
    record = np.repeat(np.arange(len(positions)), counts)
    hops = np.repeat(table.hop_offsets[sids] - (ends - counts), counts) + (
        np.arange(int(ends[-1]))
    )
    weights = np.asarray(store.record_weight, dtype=np.float64)[positions]
    terms = weights[record] / table.hop_k[hops]
    width = len(table.asns)
    cells, cell_of = np.unique(
        vps[record] * width + table.hop_asn[hops], return_inverse=True
    )
    sums = np.bincount(cell_of, weights=terms, minlength=len(cells))
    [scores] = _trimmed(
        np.zeros(len(cells), dtype=np.int64),
        table.asns[cells % width],
        sums / float(total),
        np.array([vp_count]),
        trim,
    )
    return scores
