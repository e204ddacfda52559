"""Columnar AS hegemony: the §1.2 estimator straight from store columns.

:func:`hegemony_tables` takes groups of record positions in a
:class:`~repro.perf.pathstore.PathStore` and returns, per group, exactly
the hegemony table of the records at those positions — every value
bit-identical to the estimator's definition, which
``tests/oracles/hegemony.py`` walks record by record — as a
:class:`~repro.core.ranking.ScoreColumns` pair (rows in ascending ASN
order), without materialising a record, a per-VP dict or a per-AS
dict. A group is one view (AHG/AHI/AHN/AHO and the ``-P`` variants) or
the records toward one origin AS (AHC's per-origin local hegemony).

Why the values cannot differ from the definition:

* **Step 1, per-VP betweenness.** Records weighing 0 are dropped
  before anything is counted, so a VP whose records all weigh 0 never
  counts in ``n``. The rest are ordered by (group, VP) with a stable
  sort, so each (group, VP) cell keeps its records in ascending
  position order — the records' order. ``np.bincount`` adds
  every bin's terms one at a time in input order starting from 0.0, so
  the cell totals and the per-(cell, AS) weights are the same sequence
  of float additions as the definition's running ``total + w`` per
  key, and dividing one by the other is the same division. A cell's
  terms are never split across two ``bincount`` calls: chunks hold
  whole cells. Each path contributes its *distinct* ASNs
  (:meth:`~repro.perf.pathstore.PathStore.distinct_asns`), like
  ``ASPath.unique_asns()``; address weights are Python ``float()`` of
  the counts (IPv6 counts exceed int64). A (cell, AS) bin is numbered
  over the store-wide AS codes, which ascend with the ASN, so a code
  names one AS in every chunk and is turned into its ASN once per
  output row.
* **Step 2, trimmed mean.** Per (group, AS) the non-zero per-VP values
  are sorted ascending. The window left after trimming
  ``k = min(ceil(trim·n), (n - 1) // 2)`` values from each end of the
  implicit ``[0.0] * zeros + sorted(values)`` is a slice of them, and is
  summed one value at a time, left to right, exactly as Python's
  ``sum`` does (with its Neumaier compensation on Python 3.12+) —
  never by ``np.sum`` or ``np.add.reduceat``, whose pairwise summation
  can change the last bits. Leading zeros cannot perturb such a sum.
  Every AS with a non-zero cell keeps its row, even when it scores 0.0.
  The sort into that order is stable by (group, AS code) but not among
  equal values (one quicksort of the values, then stable sorts by AS
  code and by group id, radix sorts while a key fits 16 bits). That
  cannot change a sum or a row: every value is a finite share >= 0,
  never NaN or ``-0.0``, so two equal values are the same float64 and
  swapping them leaves every addition with the same operands in the
  same order; a row is cut where the (group, code) key changes, which
  the stable passes keep in order.

Each path's distinct ASNs come from :func:`distinct_path_asns`, which
scans the store's shared AS codes
(:meth:`~repro.perf.pathstore.PathStore.asn_codes`: one small unsigned
code per token, equal codes for equal ASNs) for repeats inside each
path — no sort, and no int64 per token.

Memory: step 1 expands records into (record, AS) pairs one chunk of
about :data:`CHUNK_RECORDS` records at a time; step 2 holds one value
per non-zero (group, VP, AS) cell.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.hegemony import check_weighting, validate_trim
from repro.core.ranking import ScoreColumns, no_scores
from repro.net.aspath import sorted_distinct

if TYPE_CHECKING:
    from repro.perf.pathstore import PathStore

#: records per step-1 chunk; chunks are cut only where a (group, VP)
#: cell starts, so one may run over by part of a cell
CHUNK_RECORDS = 50_000
#: a chunk bins its (cell, AS) pairs directly while the bins number at
#: most this many per pair plus the floor; beyond, np.unique numbers
#: only the pairs present (country views bin directly, AHC's many
#: (origin, VP) cells take np.unique)
DENSE_BINS_PER_PAIR = 4
DENSE_BINS_FLOOR = 65_536
#: interned paths per slice of the repeated-ASN scan
PATH_SLICE = 200_000
#: Python's float ``sum`` is Neumaier-compensated from 3.12 on
_COMPENSATED = sys.version_info >= (3, 12)


def hegemony_tables(
    store: "PathStore",
    groups: Sequence[np.ndarray],
    trim: float,
    weighting: str = "addresses",
) -> list[ScoreColumns]:
    """One hegemony table per group of ascending store positions.

    Table ``i`` holds the hegemony of every AS on the records at
    ``groups[i]`` (with ``trim`` and ``weighting``), keys ascending;
    an out-of-range trim or an unknown weighting raises the
    ``ValueError`` every ranking entry point raises.
    """
    validate_trim(trim)
    check_weighting(weighting)
    if not groups:
        return []
    positions = np.concatenate(
        [np.asarray(group, dtype=np.int64) for group in groups]
    )
    group_of = np.repeat(
        np.arange(len(groups), dtype=np.int64),
        [len(group) for group in groups],
    )
    if weighting == "addresses":
        weights = np.asarray(store.record_weight, dtype=np.float64)[positions]
        positive = weights > 0.0
        positions = positions[positive]
        group_of = group_of[positive]
        weights = weights[positive]
    else:
        weights = np.ones(len(positions))
    if len(positions) == 0:
        return [no_scores() for _ in groups]
    vps = np.asarray(store.record_vp, dtype=np.int64)[positions]
    width = int(vps.max()) + 1
    keys = group_of * width + vps
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    positions = positions[order]
    weights = weights[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    vp_counts = np.bincount(keys[starts] // width, minlength=len(groups))
    cells = [
        _betweenness(
            store, positions[lo:hi], weights[lo:hi], keys[lo:hi], width
        )
        for lo, hi in _chunks(starts, len(keys))
    ]
    return _trimmed(
        np.concatenate([group for group, _, _ in cells]),
        np.concatenate([code for _, code, _ in cells]),
        np.concatenate([value for _, _, value in cells]),
        vp_counts, trim, store.asn_codes()[0],
    )


def _chunks(starts: np.ndarray, size: int) -> list[tuple[int, int]]:
    """``[lo, hi)`` ranges of about :data:`CHUNK_RECORDS` records, cut
    only at the cell starts ``starts``."""
    targets = np.arange(CHUNK_RECORDS, size, CHUNK_RECORDS)
    nearest = np.minimum(np.searchsorted(starts, targets), len(starts) - 1)
    bounds = sorted_distinct(np.concatenate(([0], starts[nearest], [size])))
    return list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))


def _betweenness(
    store: "PathStore",
    positions: np.ndarray,
    weights: np.ndarray,
    keys: np.ndarray,
    width: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step 1 over whole (group, VP) cells sorted by ``keys``: per cell
    and AS on its paths, the AS's share of the cell's weight, as
    ``(group, code, value)`` columns, ``code`` the AS's store-wide code
    (:meth:`~repro.perf.pathstore.PathStore.asn_codes`)."""
    ids, offsets, lengths, table = store.distinct_asns()
    first = np.diff(keys, prepend=-1) != 0
    cell = np.cumsum(first) - 1
    totals = np.bincount(cell, weights=weights)
    paths = np.asarray(store.record_path, dtype=np.int64)[positions]
    counts = lengths[paths]
    ends = np.cumsum(counts)
    asn_ids = ids[
        np.repeat(offsets[paths] - (ends - counts), counts)
        + np.arange(int(ends[-1]))
    ]
    # each (cell, AS) pair gets one bin over the store-wide AS codes,
    # so a code means one ASN in every chunk: a direct bincount when
    # the bins are few, else bins numbered by np.unique — the same
    # terms in the same order either way
    span = len(table)
    pair = np.repeat(cell * span, counts) + asn_ids
    terms = np.repeat(weights, counts)
    bins = (int(cell[-1]) + 1) * span
    if bins <= DENSE_BINS_PER_PAIR * len(pair) + DENSE_BINS_FLOOR:
        sums = np.bincount(pair, weights=terms)
        pairs = np.flatnonzero(sums)  # weights > 0: a used bin is > 0
        sums = sums[pairs]
    else:
        pairs, pair_of = np.unique(pair, return_inverse=True)
        sums = np.bincount(pair_of, weights=terms)
    pair_cell, pair_code = np.divmod(pairs, span)
    return keys[first][pair_cell] // width, pair_code, sums / totals[pair_cell]


def _trimmed(
    groups: np.ndarray,
    codes: np.ndarray,
    values: np.ndarray,
    vp_counts: np.ndarray,
    trim: float,
    asns: np.ndarray,
) -> list[ScoreColumns]:
    """Step 2: per (group, AS), the trimmed mean over the group's
    ``n`` VPs, a missing cell counting as a 0; one table per group.
    ``codes`` index the sorted distinct ASNs ``asns``.

    The cells are sorted by (group, code, value) in three passes: one
    unstable sort of the values, then stable sorts by code and by
    group, each key in the smallest unsigned dtype its range allows."""
    order = np.argsort(values)
    for key, bound in ((codes, len(asns)), (groups, len(vp_counts))):
        key = key.astype(np.min_scalar_type(max(bound - 1, 0)))[order]
        order = order[np.argsort(key, kind="stable")]
    groups = groups[order]
    codes = codes[order]
    values = values[order]
    row_start = np.flatnonzero(
        (np.diff(groups, prepend=-1) != 0) | (np.diff(codes, prepend=-1) != 0)
    )
    row_group = groups[row_start]
    nonzero = np.diff(row_start, append=len(values))
    trims = np.array(
        [min(math.ceil(trim * n), (n - 1) // 2) for n in vp_counts.tolist()],
        dtype=np.int64,
    )
    n = vp_counts[row_group]
    k = trims[row_group]
    zeros = n - nonzero
    low = np.maximum(k - zeros, 0)
    high = np.maximum(n - k - zeros, 0)
    sums = _window_sums(values, row_start + low, high - low)
    scores = sums / (n - 2 * k)
    row_asns = asns[codes[row_start]].astype(np.int64, copy=False)
    bounds = np.searchsorted(row_group, np.arange(len(vp_counts) + 1)).tolist()
    return [
        ScoreColumns(row_asns[lo:hi], scores[lo:hi])
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def _window_sums(
    values: np.ndarray, first: np.ndarray, length: np.ndarray
) -> np.ndarray:
    """Per row ``i``, ``sum(values[first[i]:first[i] + length[i]])`` as
    Python's ``sum`` computes it over a list of floats: one addition at
    a time, left to right.

    Rows are visited longest first, so at step ``j`` the rows still
    adding are a prefix; each step adds the ``j``-th window value of
    every such row in one vectorized operation.
    """
    rows = np.argsort(-length, kind="stable")
    first = first[rows]
    length = length[rows]
    total = np.zeros(len(rows))
    carry = np.zeros(len(rows))
    longest = int(length[0]) if len(rows) else 0
    live = np.searchsorted(-length, -np.arange(longest), side="left").tolist()
    for step, count in enumerate(live):
        term = values[first[:count] + step]
        if _COMPENSATED:
            partial = total[:count]
            added = partial + term
            carry[:count] += np.where(
                np.abs(partial) >= np.abs(term),
                (partial - added) + term,
                (term - added) + partial,
            )
            total[:count] = added
        else:
            total[:count] += term
    if _COMPENSATED:
        total += carry
    sums = np.empty(len(rows))
    sums[rows] = total
    return sums


def distinct_path_asns(
    codes: np.ndarray, offsets: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The interned paths with each path's repeated ASNs dropped (first
    occurrence kept) — ``ASPath.unique_asns()`` over the token column.

    ``codes`` numbers every token by its ASN (the store's shared
    :meth:`~repro.perf.pathstore.PathStore.asn_codes`; equal codes are
    equal ASNs). Returns ``(ids, offsets, lengths)``: the kept tokens'
    codes and the columns locating each path's run of them. The scan
    compares every code with the ``1 .. L-1`` codes before it inside
    its own path, :data:`PATH_SLICE` paths at a time.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    repeated = np.zeros(len(codes), dtype=bool)
    for lo in range(0, len(lengths), PATH_SLICE):
        hi = min(lo + PATH_SLICE, len(lengths))
        begin = int(offsets[lo])
        end = int(offsets[hi - 1] + lengths[hi - 1])
        part = codes[begin:end]
        slice_lengths = lengths[lo:hi]
        within = np.arange(end - begin) - np.repeat(
            offsets[lo:hi] - begin, slice_lengths
        )
        flags = repeated[begin:end]
        for shift in range(1, int(slice_lengths.max())):
            flags[shift:] |= (part[shift:] == part[:-shift]) & (
                within[shift:] >= shift
            )
    if not repeated.any():
        return codes, offsets, lengths
    path_of = np.repeat(np.arange(len(lengths)), lengths)
    lengths = lengths - np.bincount(path_of[repeated], minlength=len(lengths))
    return codes[~repeated], np.cumsum(lengths) - lengths, lengths
