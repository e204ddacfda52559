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
  ids follow (shorter id, ASN) order as before. Each suffix's cone
  pairs are built with it: every AS on the suffix paired with itself
  and every AS after it (toward the origin), packed ``holder * n +
  member``. :meth:`repro.perf.pathstore.PathStore.transit_suffixes`
  memoises the table on the store.

Every product is columns — (holder, member) pairs, an
:class:`AddressProfile`, :class:`~repro.core.ranking.ScoreColumns` —
never a per-AS dict or set. Why the values cannot differ from the
definition (``tests/oracles/cone.py`` and ``tests/oracles/cti.py``,
which walk the records one by one):

* **Cones** (:func:`cone_pairs`). The definition adds, per suffix,
  each AS and everything after it to that AS's cone: exactly the
  suffix's pairs. Those updates are idempotent, so a view's cones are
  the distinct pairs of its distinct suffix ids, which a presence table
  over the ids marks.
* **Closure addresses** (:func:`closure`). :func:`address_profile`
  reads each distinct (origin, prefix) of a view once, through the
  ``record_prefix`` column and the prefix side table, which holds the
  one count every record of the prefix carries. When every prefix has
  a single origin in the view, cone members own disjoint prefix sets,
  so an AS's closure total is the sum of its members' per-origin
  totals. A view in which some prefix has two origins (MOAS) sums
  over its distinct (holder, prefix id) pairs instead — the
  definition's prefix-set union. Every
  sum is exact: in int64 while the view's address total is below
  2**53 (no closure exceeds it), and in Python ints otherwise — IPv6
  counts exceed int64, and float64 would round them.
* **CTI** (:func:`cti_scores`). Every record's transit hops expand, in
  record order and suffix order, into ``weight / k`` terms, each the
  float division the definition performs; one ``np.bincount`` over
  the (VP, AS) cells ``np.unique`` numbers adds every cell's terms one
  at a time from 0.0, the definition's running ``total + weight / k``
  sequence. Zero-address records
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
from repro.core.ranking import ScoreColumns, no_scores
from repro.net.aspath import dense_codes, runs, sorted_distinct
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
    #: suffix id → its cone pairs as the range ``[pair_offsets,
    #: pair_offsets + pair_lengths)`` of ``pair_codes``: each AS on the
    #: suffix with itself and every AS after it, packed ``holder * n +
    #: member`` over the store's ``n`` AS codes
    pair_offsets: np.ndarray
    pair_lengths: np.ndarray
    pair_codes: np.ndarray


def _within(sizes: np.ndarray) -> np.ndarray:
    """Each item's index inside its run, for consecutive runs of
    ``sizes`` items."""
    ends = np.cumsum(sizes)
    return np.arange(int(ends[-1]) if len(ends) else 0) - np.repeat(
        ends - sizes, sizes
    )


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
    hop_offsets = np.cumsum(hop_lengths) - hop_lengths
    within = _within(hop_lengths)
    hop_k = (np.repeat(hop_lengths, hop_lengths) - within).astype(np.float64)
    transit, hop_asn = dense_codes(tokens[np.repeat(begin, hop_lengths) + within])
    # cone pairs: per suffix AS (a token position), itself and the
    # ASes after it
    members = np.repeat(size, size) - _within(size)
    holder = np.repeat(np.repeat(begin, size) + _within(size), members)
    member = holder + _within(members)
    pair_lengths = size * (size + 1) // 2
    return SuffixTable(
        path_suffix, suffixes, hop_offsets, hop_lengths, hop_asn, hop_k, transit,
        np.cumsum(pair_lengths) - pair_lengths, pair_lengths,
        codes[holder].astype(np.int64) * width + codes[member],
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
        sorted_distinct(_pair_codes(codes, offsets, len(asns))), max(len(asns), 1)
    )
    pairs = zip(asns[lefts].tolist(), asns[rights].tolist())
    return frozenset(
        (left, right) for left, right in pairs
        if oracle.relationship(left, right) == "p2c"
    )


def view_suffix_ids(
    store: "PathStore", positions: np.ndarray, table: SuffixTable
) -> np.ndarray:
    """The ascending distinct suffix ids of the records at
    ``positions``, marked in a presence table over the ids."""
    present = np.zeros(len(table.suffixes), dtype=bool)
    present[table.path_suffix[store.record_path[positions]]] = True
    return np.flatnonzero(present)


def cone_pairs(
    store: "PathStore", positions: np.ndarray, table: SuffixTable
) -> tuple[np.ndarray, np.ndarray]:
    """The customer cones of the records at ``positions`` as their
    distinct ``(holder, member)`` ASN pairs, ascending by holder, then
    member: ``member`` is in ``holder``'s cone exactly for these
    pairs."""
    asns = store.asn_codes()[0]
    ids = view_suffix_ids(store, positions, table)
    codes, _ = runs(table.pair_codes, table.pair_offsets, table.pair_lengths, ids)
    holder, member = np.divmod(sorted_distinct(codes), max(len(asns), 1))
    return asns[holder], asns[member]


class AddressProfile(NamedTuple):
    """A view's destination addresses, read from its distinct (origin,
    prefix) pairs."""

    #: the distinct (origin AS, prefix id) pairs, ascending, and each
    #: pair's prefix address count: int64 while :attr:`total` is below
    #: 2**53, Python ints in an object array otherwise
    origin: np.ndarray
    prefix: np.ndarray
    count: np.ndarray
    #: the address total of the view's distinct prefixes
    total: int
    #: whether some prefix has two origins in the view (MOAS), so the
    #: per-origin totals overlap
    moas: bool

    def per_origin(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct origins, ascending, and per origin the
        addresses of the distinct prefixes it originates."""
        starts = np.flatnonzero(np.diff(self.origin, prepend=-1))
        return self.origin[starts], np.add.reduceat(self.count, starts)


def address_profile(store: "PathStore", positions: np.ndarray) -> AddressProfile:
    """The :class:`AddressProfile` of the records at ``positions``
    (ascending): every distinct (origin, prefix) pair counts its
    prefix's addresses once, every distinct prefix once in the total.

    The counts are float64 ``prefix_weight`` values cast back to int64
    when the float64 sum of the distinct prefixes' weights is below
    2**53. That test is exact: the weights are non-negative, and a
    float sum of integers is exact while it stays below 2**53 and cannot
    fall below 2**53 once the exact sum reaches it; every count of such
    a view is below 2**53, so its float64 weight is the count itself.
    """
    origins = store.record_origin[positions]
    fids = store.record_prefix[positions]
    order = np.lexsort((fids, origins))
    origins, fids = origins[order], fids[order]
    first = (np.diff(origins, prepend=-1) != 0) | (np.diff(fids, prepend=-1) != 0)
    origin, prefix = origins[first], fids[first]
    present = np.zeros(len(store.prefix_table), dtype=bool)
    present[prefix] = True
    distinct = np.flatnonzero(present)
    weight = store.prefix_weight
    if weight[distinct].sum() < 2**53:
        count = weight[prefix].astype(np.int64)
        total = int(weight[distinct].astype(np.int64).sum())
    else:
        table = store.prefix_table
        count = np.empty(len(prefix), dtype=object)
        count[:] = [table[fid][2] for fid in prefix.tolist()]
        total = sum(table[fid][2] for fid in distinct.tolist())
    return AddressProfile(origin, prefix, count, total, len(distinct) < len(prefix))


def closure(
    holders: np.ndarray, members: np.ndarray, profile: AddressProfile
) -> ScoreColumns:
    """Per cone holder of the :func:`cone_pairs` ``(holders,
    members)``, the addresses of the distinct prefixes its members
    originate in the view, summed exactly in the profile's count dtype (see the module
    docstring)."""
    if not len(holders):
        return ScoreColumns(holders, profile.count[:0])
    first = np.diff(holders, prepend=-1) != 0
    starts = np.flatnonzero(first)
    if not profile.moas:
        origins, totals = profile.per_origin()
        at = np.minimum(np.searchsorted(origins, members), len(origins) - 1)
        counts = np.where(origins[at] == members, totals[at], 0)
        return ScoreColumns(holders[starts], np.add.reduceat(counts, starts))
    # MOAS: every (holder, member) pair expands into the member's
    # prefix ids; the distinct (holder, prefix id) pairs are summed
    lo = np.searchsorted(profile.origin, members, "left")
    spread = np.searchsorted(profile.origin, members, "right") - lo
    owner = np.repeat(np.cumsum(first) - 1, spread)
    prefix = profile.prefix[np.repeat(lo, spread) + _within(spread)]
    width = int(profile.prefix.max()) + 1
    owner, prefix = np.divmod(sorted_distinct(owner * width + prefix), width)
    count = np.zeros(width, dtype=profile.count.dtype)
    count[profile.prefix] = profile.count
    runs_at = np.flatnonzero(np.diff(owner, prepend=-1))
    sums = np.zeros(len(starts), dtype=profile.count.dtype)
    sums[owner[runs_at]] = np.add.reduceat(count[prefix], runs_at)
    return ScoreColumns(holders[starts], sums)


def cti_scores(
    store: "PathStore",
    positions: np.ndarray,
    table: SuffixTable,
    total: int,
    trim: float,
) -> ScoreColumns:
    """The CTI table of the records at ``positions`` (ascending), with
    ``total`` the view's address total, as columns."""
    validate_trim(trim)
    if total <= 0 or len(positions) == 0:
        return no_scores()
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
        cells % width,
        sums / float(total),
        np.array([vp_count]),
        trim,
        table.asns,
    )
    return scores
