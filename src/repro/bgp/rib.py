"""Lazy daily RIB snapshots for a simulated world.

The paper ingests five daily RIBs from every collector (Table 1). We
model a :class:`RibSeries` as the deterministic product of:

* the propagated best path per (VP AS, origin) — shared structure, so
  millions of logical announcements reference a few hundred thousand
  path objects;
* a per-VP *visibility* mask (real VPs rarely carry a 100 % feed);
* prefix-level *churn* — a prefix absent from some days' RIBs is what
  the paper's "unstable" filter rejects;
* injected anomalies (loops, poisoning, unallocated ASNs, prepending,
  route-server hops) that override the clean path for a record.

All randomness is *hash-stable*: each draw is keyed by the entity it
concerns (a VP IP, a prefix, a record) rather than by position in a
shared stream, so editing one AS in a world never reshuffles the noise
applied to unrelated VPs and prefixes.

Announcements are never materialised en masse: iterate
:meth:`RibSeries.windows` for the deduplicated per-(VP, prefix) view as
columnar :class:`~repro.bgp.announcement.RecordWindow` blocks (what the
pipeline sanitizes), :meth:`RibSeries.records` for the same view as
record objects, or :meth:`RibSeries.announcements` for a specific
day's stream. All three come from one enumeration of the VP × prefix
grid, one VP row at a time.
"""

from __future__ import annotations

import random
import zlib
from array import array
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.bgp.anomalies import AnomalyConfig, InjectionSummary, inject_anomalies
from repro.bgp.announcement import (
    WINDOW,
    Announcement,
    RecordTables,
    RecordWindow,
    RibRecord,
)
from repro.bgp.collectors import VantagePoint
from repro.bgp.propagation import RoutingOutcome
from repro.net.aspath import ASPath
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


def _stable_uniform_bytes(prefix: bytes, key: bytes) -> float:
    """:func:`_stable_uniform` over pre-encoded ``prefix + key`` bytes.

    The per-(VP, prefix) loops draw hundreds of thousands of times; the
    f-string formatting and ``str.encode`` of the generic helper
    dominate those loops, so they pre-encode the ``"{seed}:{kind}:"``
    prefix once and the entity key once per entity. The digest is
    byte-identical to the generic helper's.
    """
    return (zlib.crc32(prefix + key) & 0xFFFFFFFF) / 4294967296.0


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
        #: the grid's columns: a dense code per origin ASN, and per
        #: prefix index its origin's code and its address family
        self._origin_code: dict[int, int] = {}
        self._prefix_origin = np.asarray(
            [
                self._origin_code.setdefault(asn, len(self._origin_code))
                for _, asn in self.prefix_table
            ],
            dtype=np.int64,
        )
        self._prefix_family = np.asarray(
            [prefix.version for prefix, _ in self.prefix_table], dtype=np.int64
        )
        outcomes = outcome if isinstance(outcome, list) else [outcome]
        if not outcomes:
            raise ValueError("need at least one routing outcome")
        width = len(self.prefix_table)
        with tracer.span(
            "ribs", vps=len(self.vps), prefixes=len(self.prefix_table),
            days=config.days,
        ) as span:
            with tracer.span("ribs.paths"):
                self._paths, self._routes = self._collect_paths(outcomes)
            with tracer.span("ribs.visibility"):
                self._missing = self._sample_visibility()
                #: the missing cells as sorted ``vp * width + prefix`` keys
                self._missing_keys = np.sort(np.fromiter(
                    (vp * width + prefix for vp, prefix in self._missing),
                    dtype=np.int64, count=len(self._missing),
                ))
            with tracer.span("ribs.churn"):
                self.unstable_days = self._sample_churn()
                #: days present per prefix index
                self._prefix_days = np.full(width, config.days, dtype=np.int64)
                for prefix_index, absent in self.unstable_days.items():
                    self._prefix_days[prefix_index] = config.days - len(absent)
            with tracer.span("ribs.inject"):
                self.overrides, self.injection_summary = self._inject()
                # override paths follow the clean paths in the windows'
                # path table, in cell-key order
                cells = sorted(self.overrides)
                self._override_keys = np.asarray(
                    [vp * width + prefix for vp, prefix in cells], dtype=np.int64
                )
                self._tables = RecordTables(
                    self.vps,
                    [prefix for prefix, _ in self.prefix_table],
                    self._paths + [self.overrides[cell] for cell in cells],
                )
            span.set(
                paths=len(self._paths),
                missing=len(self._missing),
                unstable=len(self.unstable_days),
                overrides=len(self.overrides),
            )
            metrics = tracer.metrics
            metrics.gauge("ribs.vps").set(len(self.vps))
            metrics.gauge("ribs.prefixes").set(len(self.prefix_table))
            metrics.gauge("ribs.paths").set(len(self._paths))
            metrics.gauge("ribs.unstable_prefixes").set(len(self.unstable_days))
            metrics.gauge("ribs.overrides").set(len(self.overrides))

    # -- construction ------------------------------------------------------

    def _collect_paths(
        self, outcomes: "list[RoutingOutcome]"
    ) -> tuple[list[ASPath], dict[int, tuple[np.ndarray, np.ndarray]]]:
        """Best path per (VP ASN, origin), as shared ASPath objects in a
        list, plus per VP ASN its routes as ``(origin codes, path ids)``
        columns.

        With multiple outcomes (routing *planes* from differently-salted
        tie-breaking), each VP AS is deterministically assigned one
        plane — emulating the path diversity real collectors see because
        peers in different regions resolve ties differently.
        """
        planes = len(outcomes)
        paths: list[ASPath] = []
        routes: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        origin_code = self._origin_code
        vp_asns = sorted({vp.asn for vp in self.vps})
        plane_of = {
            vp_asn: zlib.crc32(f"plane:{vp_asn}".encode()) % planes
            for vp_asn in vp_asns
        }
        for vp_asn in vp_asns:
            outcome = outcomes[plane_of[vp_asn]]
            codes, ids = array("q"), array("q")
            for origin in outcome.origins():
                route = outcome.routes[origin].get(vp_asn)
                if route is not None:
                    code = origin_code.get(origin)
                    if code is not None:  # else it announces no prefix
                        codes.append(code)
                        ids.append(len(paths))
                    # propagated paths are valid by construction
                    paths.append(ASPath.trusted(route.path))
            routes[vp_asn] = (
                np.frombuffer(codes, dtype=np.int64),
                np.frombuffer(ids, dtype=np.int64),
            )
        return paths, routes

    def _sample_visibility(self) -> set[tuple[int, int]]:
        """(vp_index, prefix_index) pairs the VP does not carry."""
        missing: set[tuple[int, int]] = set()
        drop_rate = 1.0 - self.config.vp_visibility
        if drop_rate <= 0.0:
            return missing
        # One crc32 per cell is unavoidable; the string assembly is
        # not — pre-encode the stable "{seed}:vis:{ip}|" head per VP
        # and the "{prefix}" tail per prefix (draws stay identical to
        # _stable_uniform(seed, "vis", f"{vp.ip}|{prefix}")).
        seed = self._seed
        tails = [text.encode() for text in self._prefix_strs]
        for vp_index, vp in enumerate(self.vps):
            head = f"{seed}:vis:{vp.ip}|".encode()
            for prefix_index, tail in enumerate(tails):
                if _stable_uniform_bytes(head, tail) < drop_rate:
                    missing.add((vp_index, prefix_index))
        return missing

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

    def _inject(self) -> tuple[dict[tuple[int, int], ASPath], InjectionSummary]:
        graph = self.world.graph
        clique = graph.clique()
        route_servers = graph.route_servers()
        pool = graph.asn_registry.unallocated_sample(16)
        filler_pool = [asn for asn in graph.asns() if asn not in clique]

        paths = self._paths

        def clean_records() -> Iterator[tuple[tuple[int, int], ASPath]]:
            for vp_index, prefixes, ids in self._grid():
                for prefix_index, pid in zip(prefixes.tolist(), ids.tolist()):
                    yield ((vp_index, prefix_index), paths[pid])

        # The roll/rng draws key on f"{vp.ip}|{prefix}"; pre-encode the
        # per-VP heads and per-prefix tails once so the per-record work
        # is a dict-free bytes concat + crc32 (draws stay identical to
        # the _stable_uniform / crc32-seeded forms they replace).
        seed = self._seed
        roll_heads = [f"{seed}:anom:{vp.ip}|".encode() for vp in self.vps]
        rng_heads = [f"{seed}:anom-rng:{vp.ip}|".encode() for vp in self.vps]
        tails = [text.encode() for text in self._prefix_strs]

        def roll_for(key: tuple[int, int]) -> float:
            return _stable_uniform_bytes(roll_heads[key[0]], tails[key[1]])

        def rng_for(key: tuple[int, int]) -> random.Random:
            return random.Random(zlib.crc32(rng_heads[key[0]] + tails[key[1]]))

        return inject_anomalies(
            clean_records(),
            self.config.anomalies,
            clique,
            pool,
            route_servers,
            random.Random(self._seed),
            filler_pool=filler_pool,
            roll_for=roll_for,
            rng_for=rng_for,
        )

    # -- iteration ----------------------------------------------------------

    def _grid(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """``(vp_index, prefix indices, clean path ids)`` per VP row: the
        cells the VP carries (it has a route to the prefix's origin and
        the prefix is not missing from its feed), prefixes ascending —
        the one enumeration of the VP × prefix grid."""
        width = len(self.prefix_table)
        prefix_origin = self._prefix_origin
        missing = self._missing_keys
        none = np.empty(0, dtype=np.int64)
        for vp_index, vp in enumerate(self.vps):
            codes, ids = self._routes.get(vp.asn, (none, none))
            route = np.full(len(self._origin_code), -1, dtype=np.int64)
            route[codes] = ids
            cell = route[prefix_origin]
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
        paths followed by the override paths. ``family`` keeps only
        that address family's prefixes.

        Built lazily one VP row at a time: no :class:`RibRecord` is
        created and no whole-series column is ever held.
        """
        if size < 1:
            raise ValueError("window size must be >= 1")
        width = len(self.prefix_table)
        keys, clean = self._override_keys, len(self._paths)
        wanted = None if family is None else self._prefix_family == family
        days = self.config.days

        def rows() -> Iterator[tuple[np.ndarray, ...]]:
            for vp_index, prefixes, ids in self._grid():
                # every override cell is a carried cell of its VP row;
                # override ``k`` (in key order) is path ``clean + k``
                base = vp_index * width
                low, high = np.searchsorted(keys, (base, base + width))
                if high > low:
                    at = np.searchsorted(prefixes, keys[low:high] - base)
                    ids[at] = clean + np.arange(low, high, dtype=np.int64)
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

    def announcements(self, day: int) -> Iterator[Announcement]:
        """Stream one day's RIB (0-based day index)."""
        if not 0 <= day < self.config.days:
            raise ValueError(f"day {day} outside 0..{self.config.days - 1}")
        absent = np.zeros(len(self.prefix_table), dtype=bool)
        for prefix_index, days in self.unstable_days.items():
            absent[prefix_index] = day in days
        tables = self._tables
        vps, prefixes, paths = tables.vps, tables.prefixes, tables.paths
        for window in self.windows():
            present = ~absent[window.prefix]
            for vp, prefix, path in zip(
                window.vp[present].tolist(), window.prefix[present].tolist(),
                window.path[present].tolist(),
            ):
                yield Announcement(vps[vp], prefixes[prefix], paths[path])

    def days(self) -> Iterator["RibDump"]:
        """The series day by day, lazily.

        Yields one lightweight :class:`RibDump` handle per day — no
        announcement list is ever materialized; each dump streams its
        day's announcements on iteration. This is the temporal
        counterpart of the streaming record protocol: consumers that
        used to build the full multi-day list (serialization, replay)
        hold one day handle at a time instead.
        """
        for day in range(self.config.days):
            yield RibDump(self, day)

    def total_announcements(self) -> int:
        """Announcement count across all days (Table 1's "total" row)."""
        return sum(
            int(self._prefix_days[prefixes].sum()) for _, prefixes, _ in self._grid()
        )

    def num_records(self) -> int:
        """Deduplicated (VP, prefix) record count."""
        return sum(len(prefixes) for _, prefixes, _ in self._grid())


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


@dataclass(frozen=True, slots=True)
class RibDump:
    """A single day's view over a series (convenience wrapper)."""

    series: RibSeries
    day: int

    def __iter__(self) -> Iterator[Announcement]:
        return self.series.announcements(self.day)
