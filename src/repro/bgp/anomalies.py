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
inserted at one position, so a cell's category is an array operation,
only its draws take a Python loop (one generator, reseeded per cell),
and all planted runs are spliced from the clean tokens in one pass.
The per-path reference it is held to — one ``ASPath`` and one
``random.Random`` per rolled cell — lives with the tests
(``tests/bgp/anomaly_oracle.py``).
"""

from __future__ import annotations

import _random
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from repro.net.aspath import ASPathError, PathColumns

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


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform int in ``[0, n)`` taken exactly as
    ``random.Random._randbelow_with_getrandbits`` takes it, so it
    consumes the draws ``randrange``, ``randint`` and ``choice`` do."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


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
    ``rolls[i]`` and the RNG seed ``seeds[i]``. A cell whose roll falls
    under the total rate gets at most one anomaly, by the first
    cumulative bound it falls under, so the filter categories stay
    disjoint, as in Table 1:

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

    Cell ``i``'s draws are the ones ``random.Random(seeds[i])`` gives,
    taken in the order the list above names them, from one generator
    reseeded per cell.

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
    servers = sorted(route_servers)
    kind[(kind == ROUTE_SERVER) & ((sizes < 2) | (not servers))] = SKIP

    # per cell: the ASN inserted, the position it goes before, and how
    # many copies of it
    asn = np.zeros(len(ids), dtype=np.int64)
    spot = np.zeros(len(ids), dtype=np.int64)
    copies = np.ones(len(ids), dtype=np.int64)
    rng = _random.Random(0)
    seed, bits = rng.seed, rng.getrandbits

    def cells_of(category: int) -> tuple[np.ndarray, list[int], list[int]]:
        cells = np.flatnonzero(kind == category)
        return cells, seeds[cells].tolist(), sizes[cells].tolist()

    cells, cell_seeds, lengths = cells_of(LOOP)
    victims, spots = [], []
    for cell_seed, length in zip(cell_seeds, lengths):
        seed(cell_seed)
        victim = _below(bits, length - 1)
        victims.append(victim)
        spots.append(victim + 2 + _below(bits, length - 1 - victim))
    asn[cells] = tokens[starts[cells] + np.asarray(victims, dtype=np.int64)]
    spot[cells] = spots

    cells, cell_seeds, lengths = cells_of(POISON)
    fillers, first = sorted(set(filler_pool) - clique), 0
    if not fillers and len(cells):
        # the first cell whose path has an ASN outside the clique
        outside = ~np.isin(paths.columns(ids)[0], sorted(clique))
        found = np.flatnonzero(np.add.reduceat(outside, np.cumsum(sizes) - sizes))
        first = int(found[0]) if len(found) else len(ids)
        fillers = sorted(
            set(paths.columns(ids[first:first + 1])[0].tolist()) - clique
        )
    values, spots = [], []
    for cell, cell_seed, length in zip(cells.tolist(), cell_seeds, lengths):
        seed(cell_seed)
        choices = fillers if cell >= first else []
        filler = choices[_below(bits, len(choices))] if choices else 0
        head = int(starts[cell])
        path = tokens[head:head + length].tolist()
        pairs = [
            index for index, (left, right) in enumerate(zip(path, path[1:]))
            if left in clique and right in clique
        ]
        if filler in clique or not pairs:
            kind[cell] = SKIP
            values.append(0)
            spots.append(0)
            continue
        values.append(filler)
        spots.append(pairs[_below(bits, len(pairs))] + 1)
    asn[cells], spot[cells] = values, spots

    cells, cell_seeds, lengths = cells_of(UNALLOCATED)
    values, spots = [], []
    for cell_seed, length in zip(cell_seeds, lengths):
        seed(cell_seed)
        values.append(unallocated_pool[_below(bits, len(unallocated_pool))])
        spots.append(1 + _below(bits, length - 1) if length > 1 else 1)
    asn[cells], spot[cells] = values, spots

    cells, cell_seeds, lengths = cells_of(PREPEND)
    repeats, spots = [], []
    for cell_seed, length in zip(cell_seeds, lengths):
        seed(cell_seed)
        spots.append(_below(bits, length))
        repeats.append(1 + _below(bits, 3))
    spot[cells], copies[cells] = spots, repeats
    asn[cells] = tokens[starts[cells] + spot[cells]]

    cells, cell_seeds, _ = cells_of(ROUTE_SERVER)
    values = []
    for cell_seed in cell_seeds:
        seed(cell_seed)
        values.append(servers[_below(bits, len(servers))])
    asn[cells], spot[cells] = values, 1

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
