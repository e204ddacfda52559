"""Lazy daily RIB snapshots for a simulated world.

The paper ingests five daily RIBs from every collector (Table 1). We
model a :class:`RibSeries` as the deterministic product of:

* the propagated best path per (VP AS, origin) — shared structure, so
  millions of logical announcements reference a few hundred thousand
  distinct paths, held as token columns
  (:class:`~repro.net.aspath.PathColumns`) gathered straight from the
  propagation's route columns;
* a per-VP *visibility* mask (real VPs rarely carry a 100 % feed);
* prefix-level *churn* — a prefix absent from some days' RIBs is what
  the paper's "unstable" filter rejects;
* injected anomalies (loops, poisoning, unallocated ASNs, prepending,
  route-server hops) that override the clean path for a record.

All randomness is *hash-stable*: each draw is keyed by the entity it
concerns (a VP IP, a prefix, a record) rather than by position in a
shared stream, so editing one AS in a world never reshuffles the noise
applied to unrelated VPs and prefixes. The per-(VP, prefix) draws
(visibility and the anomaly roll) are computed a block of VP rows at a
time as :func:`crc32_grid` matrices — bit-identical to one
``zlib.crc32`` per cell — so visibility is one mask per block, and the
same block pass that reads the rolls counts the carried cells. The
cells whose roll falls under the anomaly rate are planted in token
space (:func:`~repro.bgp.anomalies.plant_anomalies`): their draw seeds
are gathered from a CRC grid and hashed into their values, their
planted paths are spliced from the clean tokens, and no path object
or random generator is built for them.

The windows' path table holds each value once (the
:class:`~repro.bgp.announcement.RecordTables` contract): the clean
paths, one per (VP AS, origin), then each planted value no clean path
holds, found equal to another by one stable sort of the padded
planted tokens (on ``default``@42, 10,187 planted paths hold 10,167
values); ``_override_paths`` gives each override cell its path id. The
tables' ``intern`` finds a clean value through the route matrix (a
value's one candidate is its first AS's route to its last) and any
other in a dict built on the first lookup that needs it.

Announcements are never materialised en masse: iterate
:meth:`RibSeries.windows` for the deduplicated per-(VP, prefix) view as
columnar :class:`~repro.bgp.announcement.RecordWindow` blocks (what the
pipeline sanitizes), or :meth:`RibSeries.records` for the same view as
record objects. Both come from one enumeration of the VP × prefix grid,
one VP row at a time.
"""

from __future__ import annotations

import zlib
from dataclasses import asdict, dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.bgp.anomalies import AnomalyConfig, InjectionSummary, plant_anomalies
from repro.bgp.announcement import (
    WINDOW, RecordTables, RecordWindow, RibRecord, intern_paths,
)
from repro.bgp.collectors import VantagePoint
from repro.bgp.propagation import RoutingOutcome
from repro.net.aspath import ASPath, PathColumns, runs, sorted_positions
from repro.net.prefix import Prefix
from repro.obs.trace import NULL_TRACER
from repro.topology.world import World


@dataclass(frozen=True, slots=True)
class RibGenerationConfig:
    """Knobs for RIB realism.

    ``churn_rate`` is the chance a prefix misses at least one of the
    ``days`` snapshots (the paper saw ~8 % of announcements rejected as
    unstable); ``vp_visibility`` is the chance a VP carries any given
    prefix at all.
    """

    days: int = 5
    churn_rate: float = 0.08
    vp_visibility: float = 0.985
    anomalies: AnomalyConfig = field(default_factory=AnomalyConfig)

    def __post_init__(self) -> None:
        if self.days < 1:
            raise ValueError("need at least one RIB day")
        if not 0.0 <= self.churn_rate <= 1.0:
            raise ValueError(f"churn_rate out of range: {self.churn_rate}")
        if not 0.0 < self.vp_visibility <= 1.0:
            raise ValueError(f"vp_visibility out of range: {self.vp_visibility}")


def _stable_uniform(seed: int, kind: str, key: str) -> float:
    """A uniform [0, 1) draw keyed by (seed, kind, entity)."""
    digest = zlib.crc32(f"{seed}:{kind}:{key}".encode())
    return (digest & 0xFFFFFFFF) / 4294967296.0


#: VP rows per block of a draw grid (bounds the block's floats)
_DRAW_ROWS = 128


@dataclass(frozen=True, slots=True)
class CrcTails:
    """The terms ``zlib.crc32(head + tail)`` takes from a list of tails,
    for any head: the zero blocks ``bytes(n)`` per distinct tail length
    ``n`` and their ``crc32``, per tail the code of its length among
    the distinct ones, and ``crc32(tail)``. Built once
    (:func:`crc32_tails`), they serve every grid over the same tails."""

    zeros: list[bytes]
    blank: list[int]
    size_code: np.ndarray
    crc: np.ndarray

    def shifted(self, heads: Sequence[bytes]) -> np.ndarray:
        """Per head and distinct tail length ``n``, ``crc32(bytes(n),
        crc32(head)) ^ crc32(bytes(n))`` — the only per-head work."""
        return np.asarray(
            [
                [zlib.crc32(zero, start) ^ base
                 for zero, base in zip(self.zeros, self.blank)]
                for start in map(zlib.crc32, heads)
            ],
            dtype=np.uint32,
        ).reshape(len(heads), len(self.zeros))


def crc32_tails(tails: Sequence[bytes]) -> CrcTails:
    """The :class:`CrcTails` of ``tails``."""
    sizes = np.fromiter(map(len, tails), dtype=np.int64, count=len(tails))
    distinct, size_code = np.unique(sizes, return_inverse=True)
    zeros = [bytes(size) for size in distinct.tolist()]
    return CrcTails(
        zeros, [zlib.crc32(zero) for zero in zeros], size_code,
        np.fromiter(map(zlib.crc32, tails), dtype=np.uint32, count=len(tails)),
    )


def crc32_grid(
    heads: Sequence[bytes], tails: "Sequence[bytes] | CrcTails"
) -> np.ndarray:
    """``zlib.crc32(head + tail)`` for every (head, tail) pair, as a
    ``uint32`` (heads × tails) matrix.

    CRC-32 is affine in its starting value: for a tail ``t`` of ``n``
    bytes, ``crc32(h + t) == crc32(bytes(n), crc32(h)) ^
    crc32(bytes(n)) ^ crc32(t)``. So the grid takes one ``zlib.crc32``
    per head, one per tail and one per (head, distinct tail length),
    then one XOR broadcast — bit-identical to the per-cell calls. Pass
    the tails' :class:`CrcTails` to reuse their terms across grids.
    """
    terms = tails if isinstance(tails, CrcTails) else crc32_tails(tails)
    return terms.shifted(heads)[:, terms.size_code] ^ terms.crc


def crc32_cells(
    heads: Sequence[bytes],
    tails: "Sequence[bytes] | CrcTails",
    rows: np.ndarray,
    cols: np.ndarray,
) -> np.ndarray:
    """``zlib.crc32(heads[r] + tails[c])`` for each ``(r, c)`` of
    ``zip(rows, cols)``, as ``uint32`` — the cells of
    :func:`crc32_grid` gathered without building the grid."""
    terms = tails if isinstance(tails, CrcTails) else crc32_tails(tails)
    return terms.shifted(heads)[rows, terms.size_code[cols]] ^ terms.crc[cols]


class RibSeries:
    """Daily RIB snapshots over one world, exposed lazily."""

    def __init__(
        self,
        world: World,
        outcome: "RoutingOutcome | list[RoutingOutcome]",
        config: RibGenerationConfig,
        seed: int = 0,
        tracer=NULL_TRACER,
    ) -> None:
        self.world = world
        self.config = config
        self.vps: list[VantagePoint] = world.collectors.all_vps()
        #: (prefix, origin ASN) per prefix index, deterministic order.
        self.prefix_table: list[tuple[Prefix, int]] = [
            (record.prefix, asn) for asn, record in world.graph.originations()
        ]
        self._seed = seed
        #: ``str(prefix)`` per prefix index — every hash-stable draw
        #: keys on it, and ``Prefix.__str__`` re-formats on each call
        self._prefix_strs: list[str] = [
            str(prefix) for prefix, _ in self.prefix_table
        ]
        #: the CRC-32 terms of the prefix strings, the tail of every
        #: per-(VP, prefix) draw key, built once for all three grids
        self._prefix_tails = crc32_tails(
            [text.encode() for text in self._prefix_strs]
        )
        #: the grid's columns: the origins announcing a prefix
        #: (ascending), and per prefix index its origin's code (position
        #: there) and its address family
        self._origins, self._prefix_origin = np.unique(
            np.asarray([asn for _, asn in self.prefix_table], dtype=np.int64),
            return_inverse=True,
        )
        self._prefix_family = np.asarray(
            [prefix.version for prefix, _ in self.prefix_table], dtype=np.int64
        )
        #: the VP ASes (ascending), and per VP index its AS's position
        self._vp_asns = np.asarray(
            sorted({vp.asn for vp in self.vps}), dtype=np.int64
        )
        self._vp_row = np.searchsorted(
            self._vp_asns, [vp.asn for vp in self.vps]
        ).astype(np.int64)
        outcomes = outcome if isinstance(outcome, list) else [outcome]
        if not outcomes:
            raise ValueError("need at least one routing outcome")
        width = len(self.prefix_table)
        with tracer.span(
            "ribs", vps=len(self.vps), prefixes=len(self.prefix_table),
            days=config.days,
        ) as span:
            with tracer.span("ribs.paths"):
                paths, self._route = self._collect_paths(outcomes)
                #: clean paths lead the path table; overrides follow
                self._clean_paths = len(paths)
            with tracer.span("ribs.visibility"):
                #: the missing cells as sorted ``vp * width + prefix`` keys
                self._missing_keys = self._sample_visibility()
            with tracer.span("ribs.churn"):
                self.unstable_days = self._sample_churn()
                #: days present per prefix index
                self._prefix_days = np.full(width, config.days, dtype=np.int64)
                for prefix_index, absent in self.unstable_days.items():
                    self._prefix_days[prefix_index] = config.days - len(absent)
            with tracer.span("ribs.inject") as inject:
                rolled, rolls, ids, records = self._roll()
                self._override_keys, planted, self.injection_summary = (
                    self._inject(paths, rolled, rolls, ids)
                )
                #: per override cell (in key order), its path's id
                self._override_paths, fresh = self._planted_ids(paths, planted)
                # the planted values no clean path holds follow the
                # clean paths, each once; the table is built once at
                # its final size, with no growth slack
                paths = PathColumns(
                    np.concatenate((paths.tokens, fresh.tokens)),
                    np.concatenate((paths.lengths, fresh.lengths)),
                )
                #: the values ``_route`` does not point at, by ASN tuple
                #: (built by the first :meth:`_intern` that needs it)
                self._by_value: dict[tuple[int, ...], int] | None = None
                self._tables = RecordTables(
                    self.vps, [prefix for prefix, _ in self.prefix_table],
                    paths, self._intern,
                )
                inject.set(
                    input=len(rolled), output=self.injection_summary.total(),
                    **asdict(self.injection_summary),
                )
            span.set(
                records=records,
                paths=self._clean_paths,
                missing=len(self._missing_keys),
                unstable=len(self.unstable_days),
                overrides=len(self._override_keys),
            )
            metrics = tracer.metrics
            metrics.gauge("ribs.vps").set(len(self.vps))
            metrics.gauge("ribs.prefixes").set(len(self.prefix_table))
            metrics.gauge("ribs.paths").set(self._clean_paths)
            metrics.gauge("ribs.unstable_prefixes").set(len(self.unstable_days))
            metrics.gauge("ribs.overrides").set(len(self._override_keys))

    # -- construction ------------------------------------------------------

    def _collect_paths(
        self, outcomes: "list[RoutingOutcome]"
    ) -> tuple[PathColumns, np.ndarray]:
        """Best path per (VP ASN, origin) as a path table — VP ASNs
        ascending, then origins ascending — plus the grid's route
        matrix: per VP AS (a row of ``_vp_asns``) and origin code, the
        id of its path there (-1: no route).

        With multiple outcomes (routing *planes* from differently-salted
        tie-breaking), each VP AS is deterministically assigned one
        plane — emulating the path diversity real collectors see because
        peers in different regions resolve ties differently. Paths are
        gathered from each plane's route columns; no route or path
        object is built.
        """
        planes = len(outcomes)
        vp_asns = self._vp_asns
        plane_of = np.asarray(
            [
                zlib.crc32(f"plane:{vp_asn}".encode()) % planes
                for vp_asn in vp_asns.tolist()
            ],
            dtype=np.int64,
        )
        columns = [outcome.routes.columns for outcome in outcomes]
        # each plane's routes at its own VP ASes, gathered in (VP ASN,
        # origin) order from the planes' token columns laid end to end
        picked = [
            np.flatnonzero(np.isin(plane.holder, vp_asns[plane_of == at]))
            for at, plane in enumerate(columns)
        ]
        holder, origin, offsets, lengths = (
            np.concatenate(column) for column in zip(*(
                (
                    plane.holder[rows], plane.route_origin()[rows],
                    plane.offsets[rows] + base, plane.lengths[rows],
                )
                for plane, rows, base in zip(
                    columns, picked,
                    np.cumsum([0] + [len(plane.tokens) for plane in columns]),
                )
            ))
        )
        tokens = (
            columns[0].tokens if planes == 1
            else np.concatenate([plane.tokens for plane in columns])
        )
        order = np.lexsort((origin, holder))
        paths = PathColumns(*runs(tokens, offsets, lengths, order))
        holder, origin = holder[order], origin[order]
        origins = self._origins
        code = np.searchsorted(origins, origin)
        announced = code < len(origins)
        announced[announced] = origins[code[announced]] == origin[announced]
        route = np.full((len(vp_asns), len(origins)), -1, dtype=np.int64)
        route[np.searchsorted(vp_asns, holder[announced]), code[announced]] = (
            np.flatnonzero(announced)
        )
        return paths, route

    def _draws(self, kind: str) -> Iterator[tuple[int, np.ndarray]]:
        """A hash-stable draw per (VP, prefix) cell, a block of VP rows
        at a time: ``(first, draws)`` where ``draws[i, p]`` equals
        ``_stable_uniform(seed, kind, f"{vp.ip}|{prefix}")`` for VP
        ``first + i`` and prefix index ``p``."""
        for first in range(0, len(self.vps), _DRAW_ROWS):
            heads = [
                f"{self._seed}:{kind}:{vp.ip}|".encode()
                for vp in self.vps[first:first + _DRAW_ROWS]
            ]
            yield first, crc32_grid(heads, self._prefix_tails) / 4294967296.0

    def _sample_visibility(self) -> np.ndarray:
        """The (vp_index, prefix_index) cells the VP does not carry, as
        sorted ``vp_index * width + prefix_index`` keys: one mask over
        each block of the visibility draw grid."""
        drop_rate = 1.0 - self.config.vp_visibility
        if drop_rate <= 0.0:
            return np.empty(0, dtype=np.int64)
        width = len(self.prefix_table)
        return np.concatenate([
            np.flatnonzero(draws < drop_rate) + first * width
            for first, draws in self._draws("vis")
        ] or [np.empty(0, dtype=np.int64)])

    def _sample_churn(self) -> dict[int, frozenset[int]]:
        """prefix_index -> days (0-based) on which the prefix is absent."""
        unstable: dict[int, frozenset[int]] = {}
        days = self.config.days
        if self.config.churn_rate <= 0.0 or days < 2:
            return unstable
        for prefix_index, (_, origin) in enumerate(self.prefix_table):
            key = f"{self._prefix_strs[prefix_index]}|{origin}"
            if _stable_uniform(self._seed, "churn", key) >= self.config.churn_rate:
                continue
            absent = 1 + int(
                _stable_uniform(self._seed, "churn-n", key) * (days - 1)
            )
            ranked = sorted(
                range(days),
                key=lambda d: _stable_uniform(self._seed, f"churn-d{d}", key),
            )
            unstable[prefix_index] = frozenset(ranked[:absent])
        return unstable

    def _roll(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """The carried cells whose anomaly roll falls under the total
        rate, read a block of the roll draw grid at a time: their
        ``vp_index * width + prefix_index`` keys (ascending), rolls and
        clean path ids, plus the count of all carried cells — the
        series' record count, taken in the same pass."""
        total_rate = self.config.anomalies.total_rate
        width = len(self.prefix_table)
        missing = self._missing_keys
        carried = 0
        keys, rolls, ids = [], [], []
        for first, draws in self._draws("anom"):
            route = self._route[self._vp_row[first:first + len(draws)]]
            route = route[:, self._prefix_origin]
            hit = route >= 0
            low, high = np.searchsorted(
                missing, (first * width, (first + len(draws)) * width)
            )
            hit.flat[missing[low:high] - first * width] = False
            carried += int(np.count_nonzero(hit))
            cells = np.flatnonzero(hit & (draws < total_rate))
            keys.append(cells + first * width)
            rolls.append(draws.flat[cells])
            ids.append(route.flat[cells])
        if not keys:
            none = np.empty(0, dtype=np.int64)
            return none, np.empty(0), none, carried
        return (
            np.concatenate(keys), np.concatenate(rolls), np.concatenate(ids),
            carried,
        )

    def _inject(
        self,
        paths: PathColumns,
        rolled: np.ndarray,
        rolls: np.ndarray,
        ids: np.ndarray,
    ) -> tuple[np.ndarray, PathColumns, InjectionSummary]:
        """Plant anomalies into the rolled cells (keys ``rolled``, with
        their rolls and clean path ids) in token space: each cell's
        draw seed is ``crc32(f"{seed}:anom-rng:{vp.ip}|{prefix}")``,
        gathered from a CRC grid, and its draws are counter-based
        hashes of that seed (:func:`~repro.bgp.anomalies.below`).
        Returns the planted cells' keys, their paths in that order, and
        what was planted."""
        graph = self.world.graph
        clique = graph.clique()
        seeds = crc32_cells(
            [f"{self._seed}:anom-rng:{vp.ip}|".encode() for vp in self.vps],
            self._prefix_tails,
            *np.divmod(rolled, len(self.prefix_table)),
        )
        planted, planted_paths, summary = plant_anomalies(
            paths, ids, rolls, seeds, self.config.anomalies, clique,
            graph.asn_registry.unallocated_sample(16), graph.route_servers(),
            [asn for asn in graph.asns() if asn not in clique],
        )
        return rolled[planted], planted_paths, summary

    def _planted_ids(
        self, clean: PathColumns, planted: PathColumns
    ) -> tuple[np.ndarray, PathColumns]:
        """Per planted path (``clean`` is the clean path table), the id
        its value takes in the windows' table, and the values no clean
        path holds, each once, in the order of their first planted
        path: they take the ids after the clean paths. Equal planted
        paths are found by one stable sort of their padded tokens."""
        ids = self._clean_ids(clean, planted.tokens, planted.lengths)
        rest = np.flatnonzero(ids < 0)
        first = _first_equal(*planted.columns(rest))
        new = first == np.arange(len(rest))
        ids[rest] = len(clean) + (np.cumsum(new) - 1)[first]
        return ids, PathColumns(*planted.columns(rest[new]))

    def _clean_ids(
        self, table: PathColumns, tokens: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        """Per path (``lengths`` tokens each, concatenated), the id of
        the clean path of ``table`` with its value, -1 where none: the
        clean paths are one per (VP AS, origin), so a value's one
        candidate is the route of its first AS to its last."""
        ends = np.cumsum(lengths)
        starts = ends - lengths
        row = sorted_positions(self._vp_asns, tokens[starts])
        code = sorted_positions(self._origins, tokens[ends - 1])
        ids = np.full(len(lengths), -1, dtype=np.int64)
        routed = (row >= 0) & (code >= 0)
        ids[routed] = self._route[row[routed], code[routed]]
        held = np.flatnonzero(ids >= 0)
        fits = table.lengths[ids[held]] == lengths[held]
        ids[held[~fits]] = -1
        held = held[fits]
        theirs, sizes = table.columns(ids[held])
        differs = np.repeat(np.arange(len(held)), sizes)[
            theirs != runs(tokens, starts, lengths, held)[0]
        ]
        ids[held[differs]] = -1
        return ids

    def _intern(self, tokens: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """The tables' ``intern``: a clean path's value is found through
        the route matrix, any other through
        :func:`~repro.bgp.announcement.intern_paths` over a dict of the
        table paths the matrix does not point at, built on the first
        such lookup."""
        paths = self._tables.paths
        ids = self._clean_ids(paths, tokens, lengths)
        missed = np.flatnonzero(ids < 0)
        if len(missed):
            if self._by_value is None:
                others = np.ones(len(paths), dtype=bool)
                others[self._route[self._route >= 0]] = False
                self._by_value = {
                    paths[pid].asns: pid for pid in np.flatnonzero(others).tolist()
                }
            ids[missed] = intern_paths(self._by_value, paths, *runs(
                tokens, np.cumsum(lengths) - lengths, lengths, missed
            ))
        return ids

    def overrides(self) -> dict[tuple[int, int], ASPath]:
        """The planted paths keyed by ``(vp_index, prefix_index)``, in
        cell-key order — built on each call from the override keys and
        their path ids (the pipeline never calls it)."""
        paths = self._tables.paths
        vp, prefix = np.divmod(self._override_keys, len(self.prefix_table))
        return {
            cell: paths[pid]
            for pid, cell in zip(
                self._override_paths.tolist(), zip(vp.tolist(), prefix.tolist())
            )
        }

    # -- iteration ----------------------------------------------------------

    def _grid(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """``(vp_index, prefix indices, clean path ids)`` per VP row: the
        cells the VP carries (it has a route to the prefix's origin and
        the prefix is not missing from its feed), prefixes ascending —
        the one enumeration of the VP × prefix grid."""
        width = len(self.prefix_table)
        prefix_origin = self._prefix_origin
        missing = self._missing_keys
        for vp_index, row in enumerate(self._vp_row.tolist()):
            cell = self._route[row][prefix_origin]
            carried = cell >= 0
            base = vp_index * width
            low, high = np.searchsorted(missing, (base, base + width))
            if high > low:
                carried[missing[low:high] - base] = False
            prefixes = np.flatnonzero(carried)
            yield vp_index, prefixes, cell[prefixes]

    def windows(
        self, family: int | None = None, size: int = WINDOW
    ) -> Iterator[RecordWindow]:
        """The deduplicated (VP, prefix) records as
        :class:`~repro.bgp.announcement.RecordWindow` blocks of ``size``
        rows (the last may be shorter), in :meth:`records` order, over
        the series' own tables: its VPs, its prefixes, and its clean
        paths followed by the planted values no clean path holds.
        ``family`` keeps only that address family's prefixes.

        Built lazily one VP row at a time: no :class:`RibRecord` is
        created and no whole-series column is ever held.
        """
        if size < 1:
            raise ValueError("window size must be >= 1")
        width = len(self.prefix_table)
        keys, override_paths = self._override_keys, self._override_paths
        wanted = None if family is None else self._prefix_family == family
        days = self.config.days

        def rows() -> Iterator[tuple[np.ndarray, ...]]:
            for vp_index, prefixes, ids in self._grid():
                # every override cell is a carried cell of its VP row
                base = vp_index * width
                low, high = np.searchsorted(keys, (base, base + width))
                if high > low:
                    at = np.searchsorted(prefixes, keys[low:high] - base)
                    ids[at] = override_paths[low:high]
                if wanted is not None:
                    keep = wanted[prefixes]
                    prefixes, ids = prefixes[keep], ids[keep]
                count = len(prefixes)
                yield (
                    np.full(count, vp_index, dtype=np.int64), prefixes, ids,
                    self._prefix_days[prefixes],
                    np.full(count, days, dtype=np.int64),
                )

        for columns in _blocks(rows(), size):
            yield RecordWindow(self._tables, *columns)

    def records(self) -> Iterator[RibRecord]:
        """Deduplicated (VP, prefix) records with day-presence counts —
        :meth:`windows` row by row."""
        for window in self.windows():
            yield from window.records()

    def total_announcements(self) -> int:
        """Announcement count across all days (Table 1's "total" row)."""
        return sum(
            int(self._prefix_days[prefixes].sum()) for _, prefixes, _ in self._grid()
        )

    def num_records(self) -> int:
        """Deduplicated (VP, prefix) record count."""
        return sum(len(prefixes) for _, prefixes, _ in self._grid())


def _first_equal(tokens: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per path (``lengths`` tokens each, concatenated), the index of
    the first path of equal value: the paths padded to one width, one
    stable sort of the padded rows, then a comparison of neighbours."""
    count = len(lengths)
    if not count:
        return np.empty(0, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    padded = np.full((count, int(lengths.max())), -1, dtype=np.int64)
    padded[
        np.repeat(np.arange(count), lengths),
        np.arange(len(tokens)) - np.repeat(starts, lengths),
    ] = tokens
    # each row sorts as one run of bytes: equal rows are equal bytes,
    # and any order of unequal rows serves (one sort, where a lexsort
    # takes one pass per column)
    order = np.argsort(
        padded.view(np.dtype((np.void, padded.shape[1] * 8))).ravel(),
        kind="stable",
    )
    ordered = padded[order]
    leads = np.ones(count, dtype=bool)
    leads[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    first = np.empty(count, dtype=np.int64)
    first[order] = order[leads][np.cumsum(leads) - 1]
    return first


def _blocks(
    chunks: Iterator[tuple[np.ndarray, ...]], size: int
) -> Iterator[tuple[np.ndarray, ...]]:
    """Re-cut a stream of equal-length column chunks into blocks of
    exactly ``size`` rows (the last may be shorter), in order."""
    pending: list[tuple[np.ndarray, ...]] = []
    held = 0
    for chunk in chunks:
        if not len(chunk[0]):
            continue
        pending.append(chunk)
        held += len(chunk[0])
        if held < size:
            continue
        joined = [np.concatenate(column) for column in zip(*pending)]
        full = held - held % size
        for start in range(0, full, size):
            yield tuple(column[start:start + size] for column in joined)
        held -= full
        pending = [tuple(column[full:] for column in joined)] if held else []
    if held:
        yield tuple(np.concatenate(column) for column in zip(*pending))


def generate_rib_days(
    world: World,
    outcome: "RoutingOutcome | list[RoutingOutcome]",
    config: RibGenerationConfig | None = None,
    seed: int = 0,
    tracer=NULL_TRACER,
) -> RibSeries:
    """Build the daily RIB series for one or more routing planes."""
    return RibSeries(world, outcome, config or RibGenerationConfig(), seed, tracer)

