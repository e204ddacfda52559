"""Columnar AS hegemony: the §1.2 estimator straight from store columns.

:func:`hegemony_tables` takes groups of record positions in a
:class:`~repro.perf.pathstore.PathStore` and returns, per group, exactly
the table :func:`repro.core.hegemony.hegemony_scores` builds from the
records at those positions — every value bit-identical — without
materialising a record, a per-VP dict or a per-AS list. A group is one
view (AHG/AHI/AHN/AHO and the ``-P`` variants) or the records toward
one origin AS (AHC's per-origin local hegemony).

Why the values cannot differ from the reference:

* **Step 1, per-VP betweenness.** Records weighing 0 are dropped
  before anything is counted, so a VP whose records all weigh 0 never
  counts in ``n``. The rest are ordered by (group, VP) with a stable
  sort, so each (group, VP) cell keeps its records in ascending
  position order — the reference's record order. ``np.bincount`` adds
  every bin's terms one at a time in input order starting from 0.0, so
  the cell totals and the per-(cell, AS) weights are the same sequence
  of float additions as the reference's ``dict.get(key, 0.0) + w``
  loop, and dividing one by the other is the same division. A cell's
  terms are never split across two ``bincount`` calls: chunks hold
  whole cells. Each path contributes its *distinct* ASNs
  (:meth:`~repro.perf.pathstore.PathStore.distinct_asns`), like
  ``ASPath.unique_asns()``; address weights are Python ``float()`` of
  the counts (IPv6 counts exceed int64).
* **Step 2, trimmed mean.** Per (group, AS) the non-zero per-VP values
  are sorted ascending. The window left after trimming
  ``k = min(ceil(trim·n), (n - 1) // 2)`` values from each end of the
  implicit ``[0.0] * zeros + sorted(values)`` is a slice of them, and is
  summed one value at a time, left to right, exactly as Python's
  ``sum`` does (with its Neumaier compensation on Python 3.12+) —
  never by ``np.sum`` or ``np.add.reduceat``, whose pairwise summation
  can change the last bits. Leading zeros cannot perturb such a sum.
  Every AS with a non-zero cell keeps its row, even when it scores 0.0.

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
) -> list[dict[int, float]]:
    """One hegemony table per group of ascending store positions.

    Table ``i`` equals ``hegemony_scores([store.records[p] for p in
    groups[i]], trim, weighting)`` value for value; an out-of-range
    trim or an unknown weighting raises the reference's ``ValueError``.
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
        return [{} for _ in groups]
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
        np.concatenate([asn for _, asn, _ in cells]),
        np.concatenate([value for _, _, value in cells]),
        vp_counts, trim,
    )


def _chunks(starts: np.ndarray, size: int) -> list[tuple[int, int]]:
    """``[lo, hi)`` ranges of about :data:`CHUNK_RECORDS` records, cut
    only at the cell starts ``starts``."""
    targets = np.arange(CHUNK_RECORDS, size, CHUNK_RECORDS)
    nearest = np.minimum(np.searchsorted(starts, targets), len(starts) - 1)
    bounds = np.unique(np.concatenate(([0], starts[nearest], [size])))
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
    ``(group, asn, value)`` columns."""
    ids, offsets, lengths, table = store.distinct_asns()
    first = np.diff(keys, prepend=-1) != 0
    cell = np.cumsum(first) - 1
    totals = np.bincount(cell, weights=weights)
    paths = np.asarray(store.record_path, dtype=np.int64)[positions]
    counts = lengths[paths]
    record = np.repeat(np.arange(len(positions)), counts)
    ends = np.cumsum(counts)
    asn_ids = ids[
        np.repeat(offsets[paths] - (ends - counts), counts)
        + np.arange(int(ends[-1]))
    ]
    # number the chunk's ASNs densely, then give each (cell, AS) pair
    # one bin: a direct bincount when the bins are few, else bins
    # numbered by np.unique — the same terms in the same order either way
    present = np.bincount(asn_ids, minlength=len(table)) > 0
    span = int(np.count_nonzero(present))
    pair = cell[record] * span + (np.cumsum(present) - 1)[asn_ids]
    terms = weights[record]
    bins = (int(cell[-1]) + 1) * span
    if bins <= DENSE_BINS_PER_PAIR * len(pair) + DENSE_BINS_FLOOR:
        sums = np.bincount(pair, weights=terms)
        pairs = np.flatnonzero(sums)  # weights > 0: a used bin is > 0
        sums = sums[pairs]
    else:
        pairs, pair_of = np.unique(pair, return_inverse=True)
        sums = np.bincount(pair_of, weights=terms)
    pair_cell, pair_asn = np.divmod(pairs, span)
    return (
        keys[first][pair_cell] // width,
        table[np.flatnonzero(present)[pair_asn]],
        sums / totals[pair_cell],
    )


def _trimmed(
    groups: np.ndarray,
    asns: np.ndarray,
    values: np.ndarray,
    vp_counts: np.ndarray,
    trim: float,
) -> list[dict[int, float]]:
    """Step 2: per (group, AS), the trimmed mean over the group's
    ``n`` VPs, a missing cell counting as a 0."""
    order = np.lexsort((values, asns, groups))
    groups = groups[order]
    asns = asns[order]
    values = values[order]
    row_start = np.flatnonzero(
        (np.diff(groups, prepend=-1) != 0) | (np.diff(asns, prepend=-1) != 0)
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
    scores = (sums / (n - 2 * k)).tolist()
    row_asns = asns[row_start].tolist()
    bounds = np.searchsorted(row_group, np.arange(len(vp_counts) + 1)).tolist()
    return [
        dict(zip(row_asns[lo:hi], scores[lo:hi]))
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
    tokens: np.ndarray, offsets: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The interned paths with each path's repeated ASNs dropped (first
    occurrence kept) — ``ASPath.unique_asns()`` over the token column.

    Returns ``(ids, offsets, lengths, asns)``: ``asns`` is the sorted
    distinct ASNs of all paths and ``ids`` each kept token's index into
    it, in the smallest unsigned dtype that holds it. The scan compares
    every token with the ``1 .. L-1`` tokens before it inside its own
    path, :data:`PATH_SLICE` paths at a time.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    repeated = np.zeros(len(tokens), dtype=bool)
    seen = [np.empty(0, dtype=np.int64)]
    spans = []
    for lo in range(0, len(lengths), PATH_SLICE):
        hi = min(lo + PATH_SLICE, len(lengths))
        begin = int(offsets[lo])
        end = int(offsets[hi - 1] + lengths[hi - 1])
        spans.append((begin, end))
        part = tokens[begin:end]
        slice_lengths = lengths[lo:hi]
        within = np.arange(end - begin) - np.repeat(
            offsets[lo:hi] - begin, slice_lengths
        )
        flags = repeated[begin:end]
        for shift in range(1, int(slice_lengths.max())):
            flags[shift:] |= (part[shift:] == part[:-shift]) & (
                within[shift:] >= shift
            )
        seen.append(np.unique(part))
    asns = np.unique(np.concatenate(seen))
    ids = np.empty(len(tokens), dtype=np.min_scalar_type(max(len(asns) - 1, 0)))
    for begin, end in spans:
        ids[begin:end] = np.searchsorted(asns, tokens[begin:end])
    if repeated.any():
        path_of = np.repeat(np.arange(len(lengths)), lengths)
        lengths = lengths - np.bincount(
            path_of[repeated], minlength=len(lengths)
        )
        offsets = np.cumsum(lengths) - lengths
        ids = ids[~repeated]
    return ids, offsets, lengths, asns
