"""Injection of the path pathologies the sanitizer must catch.

The paper's Table 1 rejects paths that contain loops (nonadjacent
duplicate ASes), appear poisoned (a non-top-tier AS wedged between two
top-tier ASes), or mention unallocated ASNs; it also *cleans* —
without rejecting — prepended paths and paths through IXP route-server
ASNs. This module deliberately plants each pathology into otherwise
clean simulated paths so the pipeline filters real positives, and so
tests can assert both directions (planted anomalies are caught, clean
paths survive).

:func:`plant_anomalies` plants straight into token columns. Every
planted path is its clean path with ``copies`` copies of one ASN
inserted at one position, so a cell's category is an array operation.
Its draws are counter-based hashes of its seed (:func:`below`), so
each category's values take one array pass, and all planted runs are
spliced from the clean tokens in one pass. The per-path reference it
is held to — one ``ASPath`` and one scalar twin of the draws per
rolled cell — lives with the tests (``tests/bgp/anomaly_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from repro.net.aspath import ASPathError, PathColumns, sorted_positions

#: a cell's category: how many of the cumulative rate bounds (loop,
#: poison, unallocated, prepend, route server) its roll reaches;
#: ``SKIP`` when nothing is planted there
LOOP, POISON, UNALLOCATED, PREPEND, ROUTE_SERVER, SKIP = range(6)


@dataclass(frozen=True, slots=True)
class AnomalyConfig:
    """Per-record probabilities for each pathology (independent draws).

    Rates apply per (VP, prefix) record. Defaults approximate the
    relative magnitudes in the paper's Table 1: loops and poisoning are
    rare, prepending and route-server artifacts are common enough to
    exercise the cleaning steps.
    """

    loop_rate: float = 0.001
    poison_rate: float = 0.0002
    unallocated_rate: float = 0.001
    prepend_rate: float = 0.02
    route_server_rate: float = 0.01

    def __post_init__(self) -> None:
        for name in ("loop_rate", "poison_rate", "unallocated_rate",
                     "prepend_rate", "route_server_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of range: {value}")

    @property
    def total_rate(self) -> float:
        """The chance a record is rolled for any anomaly at all."""
        return (
            self.loop_rate + self.poison_rate + self.unallocated_rate
            + self.prepend_rate + self.route_server_rate
        )

    @classmethod
    def none(cls) -> "AnomalyConfig":
        """A config that injects nothing (clean-world runs)."""
        return cls(0.0, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True, slots=True)
class InjectionSummary:
    """What the injector actually planted (ground truth for tests)."""

    loops: int
    poisoned: int
    unallocated: int
    prepended: int
    route_server: int

    def total(self) -> int:
        """All planted anomalies."""
        return (
            self.loops
            + self.poisoned
            + self.unallocated
            + self.prepended
            + self.route_server
        )


#: the counter's step: draw ``j`` of a cell hashes its seed plus
#: ``j`` times this odd constant (2**32 over the golden ratio)
STEP = 0x9E3779B9
MASK = np.uint64(0xFFFFFFFF)


def below(seeds: np.ndarray, index, n) -> np.ndarray:
    """Per cell, its draw ``index`` as an int in ``[0, n)``.

    Draw ``j`` of seed ``s`` is ``h = fmix32((s + j * STEP) mod 2**32)``
    (MurmurHash3's 32-bit finalizer) and its value below ``n`` is
    ``(h * n) >> 32``, which is 0 for ``n`` of 0 or 1. Every step
    wraps in ``uint64`` for all cells at once (``n`` up to ``2**32``);
    ``index`` and ``n`` are scalars or per-cell arrays."""
    h = np.asarray(seeds).astype(np.uint64)
    h += np.asarray(index, dtype=np.uint64) * np.uint64(STEP)
    h &= MASK
    h ^= h >> np.uint64(16)
    h *= np.uint64(0x85EBCA6B)
    h &= MASK
    h ^= h >> np.uint64(13)
    h *= np.uint64(0xC2B2AE35)
    h &= MASK
    h ^= h >> np.uint64(16)
    return ((h * np.asarray(n, dtype=np.uint64)) >> np.uint64(32)).astype(np.int64)


def plant_anomalies(
    paths: PathColumns,
    ids: np.ndarray,
    rolls: np.ndarray,
    seeds: np.ndarray,
    config: AnomalyConfig,
    clique: frozenset[int],
    unallocated_pool: Sequence[int],
    route_servers: frozenset[int],
    filler_pool: Sequence[int],
) -> tuple[np.ndarray, PathColumns, InjectionSummary]:
    """Plant anomalies into rolled cells, in token space.

    Cell ``i`` has the clean path ``paths[ids[i]]``, the uniform roll
    ``rolls[i]`` and the 32-bit draw seed ``seeds[i]``. A cell whose
    roll falls under the total rate gets at most one anomaly, by the
    first cumulative bound it falls under, so the filter categories
    stay disjoint, as in Table 1:

    * a loop re-inserts an upstream ASN two or more hops later (a path
      shorter than two ASes falls through to poisoning);
    * poisoning wedges a filler between an adjacent clique pair. The
      filler comes from ``filler_pool`` outside the clique, else from
      the first cell's path with an ASN outside it, else it is AS 0.
      The cell is skipped when its path has no such pair or the filler
      is in the clique;
    * an unallocated ASN from ``unallocated_pool`` goes at an interior
      position;
    * prepending repeats one AS one to three more times;
    * a route server's ASN goes after the VP-side AS (skipped on a
      one-AS path or with no route servers).

    Cell ``i``'s values are its successive draws (:func:`below`),
    taken in the order the list above names them; a cell that draws no
    filler takes its pair with its first draw. Which cells are planted,
    and in which category, depends on the rolls alone.

    Returns the planted cells (ascending indices into the cells), their
    paths in that order, and the per-category counts.
    """
    if not unallocated_pool and config.unallocated_rate > 0:
        raise ValueError("unallocated_rate > 0 requires an unallocated ASN pool")
    ids = np.asarray(ids, dtype=np.int64)
    starts, sizes = paths.offsets[ids], paths.lengths[ids]
    tokens = paths.tokens
    bounds = list(accumulate((
        config.loop_rate, config.poison_rate, config.unallocated_rate,
        config.prepend_rate, config.route_server_rate,
    )))
    kind = np.searchsorted(bounds, rolls, side="right")
    kind[(kind == LOOP) & (sizes < 2)] = POISON
    servers = np.asarray(sorted(route_servers), dtype=np.int64)
    kind[(kind == ROUTE_SERVER) & ((sizes < 2) | (not len(servers)))] = SKIP

    # per cell: the ASN inserted, the position it goes before, and how
    # many copies of it
    asn = np.zeros(len(ids), dtype=np.int64)
    spot = np.zeros(len(ids), dtype=np.int64)
    copies = np.ones(len(ids), dtype=np.int64)

    def cells_of(category: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        cells = np.flatnonzero(kind == category)
        return cells, seeds[cells], sizes[cells]

    cells, cell_seeds, lengths = cells_of(LOOP)
    victim = below(cell_seeds, 0, lengths - 1)
    asn[cells] = tokens[starts[cells] + victim]
    spot[cells] = victim + 2 + below(cell_seeds, 1, lengths - 1 - victim)

    cells, cell_seeds, lengths = cells_of(POISON)
    members = np.asarray(sorted(clique), dtype=np.int64)
    fillers, first = sorted(set(filler_pool) - clique), 0
    if not fillers and len(cells):
        # the first cell whose path has an ASN outside the clique
        outside = sorted_positions(members, paths.columns(ids)[0]) < 0
        found = np.flatnonzero(np.add.reduceat(outside, np.cumsum(sizes) - sizes))
        first = int(found[0]) if len(found) else len(ids)
        fillers = sorted(
            set(paths.columns(ids[first:first + 1])[0].tolist()) - clique
        )
    # a cell before ``first`` draws no filler and takes AS 0
    drawn = (cells >= first) & bool(fillers)
    filler = np.zeros(len(cells), dtype=np.int64)
    filler[drawn] = np.asarray(fillers, dtype=np.int64)[
        below(cell_seeds[drawn], 0, len(fillers))
    ]
    # the adjacent clique pairs, by the flat position of their left AS
    cell_tokens, _ = paths.columns(ids[cells])
    ends = np.cumsum(lengths)
    heads = ends - lengths
    inside = sorted_positions(members, cell_tokens) >= 0
    pairs = np.zeros(len(cell_tokens), dtype=bool)
    pairs[:-1] = inside[:-1] & inside[1:]
    pairs[ends - 1] = False
    lefts = np.flatnonzero(pairs)
    lead = np.searchsorted(lefts, heads)
    count = np.searchsorted(lefts, ends) - lead
    keep = (count > 0) & (sorted_positions(members, filler) < 0)
    kind[cells[~keep]] = SKIP
    # the pair is a cell's second draw, or its first if it drew no filler
    pick = lead + below(cell_seeds, drawn.astype(np.int64), count)
    asn[cells[keep]] = filler[keep]
    spot[cells[keep]] = lefts[pick[keep]] - heads[keep] + 1

    cells, cell_seeds, lengths = cells_of(UNALLOCATED)
    asn[cells] = np.asarray(unallocated_pool, dtype=np.int64)[
        below(cell_seeds, 0, len(unallocated_pool))
    ]
    # an interior position; a one-AS path takes position 1 (a draw
    # below 0 is 0)
    spot[cells] = 1 + below(cell_seeds, 1, lengths - 1)

    cells, cell_seeds, lengths = cells_of(PREPEND)
    spot[cells] = below(cell_seeds, 0, lengths)
    copies[cells] = 1 + below(cell_seeds, 1, 3)
    asn[cells] = tokens[starts[cells] + spot[cells]]

    cells, cell_seeds, _ = cells_of(ROUTE_SERVER)
    asn[cells] = servers[below(cell_seeds, 0, len(servers))]
    spot[cells] = 1

    planted = np.flatnonzero(kind < SKIP)
    counts = np.bincount(kind[planted], minlength=SKIP).tolist()
    return planted, _splice(
        paths, ids[planted], asn[planted], spot[planted], copies[planted]
    ), InjectionSummary(*counts)


def _splice(
    paths: PathColumns,
    ids: np.ndarray,
    asn: np.ndarray,
    spot: np.ndarray,
    copies: np.ndarray,
) -> PathColumns:
    """The paths at ``ids``, path ``i`` with ``copies[i]`` copies of
    ``asn[i]`` inserted before its position ``spot[i]``, as one path
    table. The table is held to ``ASPath``'s rule: each path is
    non-empty by construction, and every ASN must be an int ≥ 0."""
    clean, sizes = paths.columns(ids)
    # insertions at one index keep their order, so a path's insert at
    # its end precedes the next path's insert at its start
    where = np.repeat(np.cumsum(sizes) - sizes + spot, copies)
    planted = np.insert(clean, where, np.repeat(asn, copies))
    if len(planted) and planted.min() < 0:
        raise ASPathError(f"invalid ASN in path: {int(planted.min())}")
    return PathColumns(planted, sizes + copies)
