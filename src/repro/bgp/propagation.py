"""Valley-free route propagation over an AS graph.

For each origin AS, computes the best route every other AS would select
under Gao–Rexford policy using a three-phase breadth-first sweep:

1. **up** — customer-learned routes climb provider links;
2. **across** — customer routes cross a single peer link;
3. **down** — any route descends to customers.

Phases run in order because route classes dominate path length: an AS
with any customer route never selects a peer or provider route, so its
export is fixed by the earlier phase. Within a phase, routes spread in
breadth-first levels (all AS-path growth is one hop), which yields
shortest paths per class; remaining ties resolve by the configured
tie-break policy — ``"asn"`` (lowest next-hop ASN, fully reproducible
and easy to reason about in tests) or ``"hash"`` (a deterministic
per-(holder, next hop, origin) mix that emulates the geographic
diversity of real hot-potato tie-breaking: different ASes pick
different equally-good egresses instead of the whole world converging
on the lowest ASN).

**One array pass for every origin.** The production sweep
(:func:`propagate_all` and :func:`propagate`) runs the three phases for
all its origins at once, in one process,
over an (origin × AS) grid of path length, next hop and route class
and CSR adjacency held on the version-cached :class:`_Adjacency`. Each
breadth-first level expands every (origin, AS) cell settled at the
previous level through the CSR rows, computes every candidate's
tie-break key as an int64 (``asn``: the next hop's index, which sorts
as its ASN; ``hash``: a 32-bit mix of holder, next hop, origin and salt
in wrapping ``uint64`` arithmetic, then the next hop), and keeps the
minimum per cell with one ``np.minimum.at``. Levels run across all
origins together, but no origin's level reads another origin's cells,
so every cell settles exactly as a per-origin sweep settles it
(``tests/oracles/propagation.py`` is that sweep, and the tests hold
the array pass to it). Paths are rebuilt from the next hops only at
kept ASes, straight into token columns (:class:`RouteColumns`); no
:class:`~repro.bgp.policy.Route` is built unless a caller indexes
:attr:`RoutingOutcome.routes`.

The result at a vantage-point AS is the AS path that VP would advertise
to a collector — the raw material of the whole reproduction.
"""

from __future__ import annotations

import weakref
from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from repro.bgp.policy import Route, RouteClass
from repro.net.aspath import runs, sorted_positions
from repro.obs.metrics import NULL_HISTOGRAM
from repro.obs.trace import NULL_TRACER
from repro.topology.model import ASGraph

if TYPE_CHECKING:
    from repro.perf.pool import WorkerPool


@dataclass(frozen=True, slots=True, eq=False)
class RouteColumns:
    """Routes toward many origins as columns, origin-major.

    ``origins`` are ascending ASNs; the routes toward ``origins[i]`` are
    rows ``starts[i]:starts[i + 1]``, holders ascending. Per route:
    ``holder`` (its ASN), ``route_class`` (a
    :class:`~repro.bgp.policy.RouteClass` value) and its path
    (holder first, origin last) at ``tokens[offsets:offsets +
    lengths]``.
    """

    origins: np.ndarray
    starts: np.ndarray
    holder: np.ndarray
    route_class: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray
    tokens: np.ndarray

    @classmethod
    def build(
        cls,
        origins: np.ndarray,
        counts: np.ndarray,
        holder: np.ndarray,
        route_class: np.ndarray,
        lengths: np.ndarray,
        tokens: np.ndarray,
    ) -> "RouteColumns":
        """Columns from ``counts`` routes per origin, in origin order."""
        starts = np.zeros(len(origins) + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        return cls(
            origins, starts, holder, route_class,
            np.cumsum(lengths) - lengths, lengths, tokens,
        )

    def __len__(self) -> int:
        return len(self.holder)

    def route_origin(self) -> np.ndarray:
        """The origin ASN of every route."""
        return np.repeat(self.origins, np.diff(self.starts))


class RouteMap(Mapping):
    """``routes[origin][asn]``: a read-only façade over
    :class:`RouteColumns` that builds each :class:`Route` on access.

    ``routes[origin]`` maps each holder (ascending) to its best route
    toward ``origin``; an absent origin or holder has no route. Equal
    to any mapping of equal routes.
    """

    __slots__ = ("columns", "_rows")

    def __init__(self, columns: RouteColumns) -> None:
        self.columns = columns
        self._rows = {
            origin: row for row, origin in enumerate(columns.origins.tolist())
        }

    def __getitem__(self, origin: int) -> "OriginRoutes":
        return OriginRoutes(self.columns, self._rows[origin])

    def __iter__(self) -> Iterator[int]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


class OriginRoutes(Mapping):
    """The routes toward one origin: holder ASN → :class:`Route`,
    built on access."""

    __slots__ = ("_columns", "_holders")

    def __init__(self, columns: RouteColumns, row: int) -> None:
        self._columns = columns
        first, stop = int(columns.starts[row]), int(columns.starts[row + 1])
        #: holder ASN → its route's row
        self._holders = {
            asn: first + at
            for at, asn in enumerate(columns.holder[first:stop].tolist())
        }

    def __getitem__(self, asn: int) -> Route:
        at = self._holders[asn]
        columns = self._columns
        start = int(columns.offsets[at])
        return Route(
            tuple(columns.tokens[start:start + int(columns.lengths[at])].tolist()),
            RouteClass(int(columns.route_class[at])),
        )

    def __iter__(self) -> Iterator[int]:
        return iter(self._holders)

    def __len__(self) -> int:
        return len(self._holders)


@dataclass(frozen=True, slots=True)
class RoutingOutcome:
    """Best routes toward each origin, restricted to the ASes kept.

    ``routes[origin][asn]`` is the best :class:`Route` held by ``asn``
    toward ``origin``; absent keys mean the origin was unreachable.
    ``routes.columns`` holds the same routes as columns — what the RIB
    series reads.
    """

    routes: RouteMap

    def path(self, origin: int, asn: int) -> tuple[int, ...] | None:
        """Convenience lookup of the AS path or ``None``."""
        route = self.routes.get(origin, {}).get(asn)
        return route.path if route is not None else None

    def origins(self) -> list[int]:
        """All origins propagated, sorted."""
        return self.routes.columns.origins.tolist()


#: adjacency rows as CSR: ``(offsets, lengths, neighbors)``, AS index
#: ``i``'s neighbor indices at ``neighbors[offsets[i]:offsets[i] +
#: lengths[i]]``
_CSR = tuple[np.ndarray, np.ndarray, np.ndarray]


def _csr(
    rows: Mapping[int, tuple[int, ...]], position: Mapping[int, int]
) -> _CSR:
    """Adjacency rows (in ``position`` order) as CSR."""
    lengths = np.asarray([len(rows[asn]) for asn in position], dtype=np.int64)
    neighbors = np.fromiter(
        (position[other] for asn in position for other in rows[asn]),
        dtype=np.int64, count=int(lengths.sum()),
    )
    return np.cumsum(lengths) - lengths, lengths, neighbors


class _Adjacency:
    """Adjacency snapshot for fast inner loops: plain-dict rows (keep
    closures read the provider rows) and the same rows as CSR over AS indices in ascending ASN order (the array
    pass)."""

    __slots__ = (
        "providers", "customers", "peers", "asns", "index",
        "up", "across", "down",
    )

    def __init__(self, graph: ASGraph) -> None:
        self.asns = graph.asns()
        self.providers = {a: tuple(sorted(graph.providers_of(a))) for a in self.asns}
        self.customers = {a: tuple(sorted(graph.customers_of(a))) for a in self.asns}
        self.peers = {a: tuple(sorted(graph.peers_of(a))) for a in self.asns}
        #: AS index → ASN, ascending, so index order is ASN order
        self.index = np.asarray(self.asns, dtype=np.int64)
        position = {asn: at for at, asn in enumerate(self.asns)}
        self.up = _csr(self.providers, position)
        self.across = _csr(self.peers, position)
        self.down = _csr(self.customers, position)


#: graph -> (graph.version, snapshot); weak keys so graphs can die
_adjacency_cache: "weakref.WeakKeyDictionary[ASGraph, tuple[int, _Adjacency]]"
_adjacency_cache = weakref.WeakKeyDictionary()


def _adjacency_of(graph: ASGraph) -> _Adjacency:
    """The adjacency snapshot for ``graph``, cached per structural
    version, so every salt plane of one run shares one snapshot."""
    cached = _adjacency_cache.get(graph)
    version = graph.version
    if cached is not None and cached[0] == version:
        return cached[1]
    snapshot = _Adjacency(graph)
    _adjacency_cache[graph] = (version, snapshot)
    return snapshot


#: Valid tie-break policies.
TIEBREAKS = ("asn", "hash")


def keep_closure(
    adjacency: _Adjacency, keep: Iterable[int]
) -> frozenset[int]:
    """The ``keep`` set closed upward under provider links.

    An AS is *relevant* to the kept routes iff some kept AS sits in its
    customer cone — equivalently, iff it is reachable from ``keep`` by
    climbing provider edges. The down phase of the sweep only ever
    hands a route to a kept AS through a chain of relevant providers
    (a provider of a relevant AS is itself relevant), so pruning
    irrelevant customers from phase 3 cannot change any kept route.
    """
    providers = adjacency.providers
    relevant = set(keep)
    frontier = list(relevant)
    while frontier:
        next_frontier: list[int] = []
        for asn in frontier:
            for provider in providers.get(asn, ()):
                if provider not in relevant:
                    relevant.add(provider)
                    next_frontier.append(provider)
        frontier = next_frontier
    return frozenset(relevant)


#: the ``hash`` tie-break's multipliers and its 32-bit mask
_HOLDER, _HOP, _ORIGIN, _SALT = 2654435761, 2246822519, 3266489917, 374761393
_MASK = 0xFFFFFFFF
#: ``np.minimum.at``'s identity: a cell no candidate reached
_NO_KEY = np.iinfo(np.int64).max


class _Keys:
    """Tie-break keys of (origin row, holder index, next-hop index)
    candidates as int64, ordered as ``asn``'s next hop or ``hash``'s
    (mix, next hop) pairs. A key ends in the next hop's index (``key % size`` recovers it), and
    ``width`` bounds every key, so ``rank * width + key`` orders by
    rank first. (``width`` is at most 2^32 × the AS count, so a rank up
    to a path length stays far inside int64 for any graph with fewer
    than a million ASes.)"""

    __slots__ = ("size", "width", "_holder", "_hop", "_origin")

    def __init__(
        self, index: np.ndarray, origins: np.ndarray, tiebreak: str, salt: int
    ) -> None:
        self.size = max(len(index), 1)
        if tiebreak == "asn":
            self.width = self.size
            self._holder = None
            return
        if tiebreak != "hash":
            raise ValueError(
                f"unknown tiebreak {tiebreak!r} (expected one of {TIEBREAKS})"
            )
        self.width = (_MASK + 1) * self.size
        asns = index.astype(np.uint64)
        self._holder = (asns * _HOLDER) & _MASK
        self._hop = (asns * _HOP) & _MASK
        self._origin = np.asarray(
            [(origin * _ORIGIN + salt * _SALT) & _MASK for origin in origins.tolist()],
            dtype=np.uint64,
        )

    def __call__(
        self, row: np.ndarray, holder: np.ndarray, hop: np.ndarray
    ) -> np.ndarray:
        if self._holder is None:
            return hop
        # the 32-bit mix in wrapping uint64: only the low 32 bits survive
        value = (self._holder[holder] + self._hop[hop] + self._origin[row]) & _MASK
        value ^= value >> 16
        value = (value * _HOLDER) & _MASK
        value ^= value >> 13
        return value.astype(np.int64) * self.size + hop


def _expand(csr: _CSR, ases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (position in ``ases``, neighbor index) pair of the CSR
    rows of ``ases``, row by row."""
    offsets, lengths, neighbors = csr
    reached, degree = runs(neighbors, offsets, lengths, ases)
    return np.repeat(np.arange(len(ases), dtype=np.int64), degree), reached


@dataclass(frozen=True, slots=True)
class _Grid:
    """Every origin's routes over every AS, flat (origin row × AS
    index): path length in ASes (0: no route), next-hop index and
    route class."""

    length: np.ndarray
    hop: np.ndarray
    route_class: np.ndarray


def _sweep(
    adjacency: _Adjacency,
    origins: np.ndarray,
    tiebreak: str,
    salt: int,
    relevant: frozenset[int] | None,
    frontier_hist=NULL_HISTOGRAM,
) -> _Grid:
    """The three phases for every origin at once (see the module
    docstring). ``relevant`` (a :func:`keep_closure`) prunes the down
    phase to the ASes that have a kept AS in their customer cone; the
    up phase observes, per origin and level, the size of the frontier
    it settles."""
    index = adjacency.index
    size = len(index)
    keys = _Keys(index, origins, tiebreak, salt)
    count = len(origins)
    length = np.zeros(count * size, dtype=np.int16)
    hop = np.zeros(count * size, dtype=np.int32)
    klass = np.zeros(count * size, dtype=np.int8)
    best = np.full(count * size, _NO_KEY, dtype=np.int64)

    def settle(cells: np.ndarray, key: np.ndarray) -> np.ndarray:
        """Give each distinct cell its minimum-key candidate's next hop;
        returns the cells, ascending."""
        np.minimum.at(best, cells, key)
        won = np.flatnonzero(best != _NO_KEY)
        hop[won] = best[won] % keys.size
        best[won] = _NO_KEY
        return won

    # the origin cells
    rows = np.arange(count, dtype=np.int64)
    columns = np.searchsorted(index, origins)
    cells = rows * size + columns
    length[cells] = 1
    hop[cells] = columns
    klass[cells] = RouteClass.ORIGIN.value

    # Phase 1 (up): customer routes climb provider links, level by level.
    level = 1
    while len(cells):
        source, provider = _expand(adjacency.up, columns)
        row, next_hop = rows[source], columns[source]
        target = row * size + provider
        free = length[target] == 0
        cells = settle(target[free], keys(row[free], provider[free], next_hop[free]))
        level += 1
        length[cells] = level
        klass[cells] = RouteClass.CUSTOMER.value
        rows, columns = np.divmod(cells, size)
        frontiers = np.bincount(rows, minlength=count)
        for frontier in frontiers[frontiers > 0].tolist():
            frontier_hist.observe(frontier)

    # Phase 2 (across): the best customer route crosses one peer link,
    # shortest first.
    held = np.flatnonzero(length)
    rows, columns = np.divmod(held, size)
    source, peer = _expand(adjacency.across, columns)
    row, next_hop = rows[source], columns[source]
    target = row * size + peer
    free = length[target] == 0
    cost = length[held[source]].astype(np.int64) + 1
    cells = settle(
        target[free],
        cost[free] * keys.width + keys(row[free], peer[free], next_hop[free]),
    )
    length[cells] = length[(cells // size) * size + hop[cells]] + 1
    klass[cells] = RouteClass.PEER.value

    # Phase 3 (down): any selected route descends to customers,
    # breadth-first by the exported route's length.
    down = adjacency.down
    if relevant is not None:
        # only relevant customers ever enter the grid
        offsets, lengths, customers = down
        allowed = sorted_positions(
            np.asarray(sorted(relevant), dtype=np.int64), index[customers]
        ) >= 0
        kept = np.concatenate(([0], np.cumsum(allowed)))
        down = (
            kept[offsets], kept[offsets + lengths] - kept[offsets],
            customers[allowed],
        )
    level, deepest = 1, int(length.max()) if len(length) else 0
    while level <= deepest:
        batch = np.flatnonzero(length == level)
        if len(batch):
            rows, columns = np.divmod(batch, size)
            source, customer = _expand(down, columns)
            row, next_hop = rows[source], columns[source]
            target = row * size + customer
            free = length[target] == 0
            cells = settle(
                target[free], keys(row[free], customer[free], next_hop[free])
            )
            if len(cells):
                length[cells] = level + 1
                klass[cells] = RouteClass.PROVIDER.value
                deepest = max(deepest, level + 1)
        level += 1
    return _Grid(length, hop, klass)


def _kept_routes(
    index: np.ndarray,
    origins: np.ndarray,
    grid: _Grid,
    keep: frozenset[int] | None,
) -> RouteColumns:
    """The grid's routes at the ``keep`` ASes (every AS when ``None``)
    as columns, each path rebuilt by following next hops."""
    size = len(index)
    length = grid.length.reshape(len(origins), size)
    columns = None
    if keep is not None:
        columns = np.flatnonzero(
            sorted_positions(np.asarray(sorted(keep), dtype=np.int64), index) >= 0
        )
        length = length[:, columns]
    rows, at = np.nonzero(length)
    lengths = length[rows, at].astype(np.int64)
    holder = at if columns is None else columns[at]
    base = rows * size
    offsets = np.cumsum(lengths) - lengths
    tokens = np.empty(int(lengths.sum()), dtype=np.int64)
    live = np.arange(len(rows), dtype=np.int64)
    cursor = holder.copy()
    step = 0
    while len(live):
        tokens[offsets[live] + step] = index[cursor[live]]
        cursor[live] = grid.hop[base[live] + cursor[live]]
        step += 1
        live = live[lengths[live] > step]
    return RouteColumns.build(
        origins, np.bincount(rows, minlength=len(origins)), index[holder],
        grid.route_class[base + holder], lengths, tokens,
    )


def _route_pass(
    adjacency: _Adjacency,
    origins: list[int],
    tiebreak: str,
    salt: int,
    keep: frozenset[int] | None,
    relevant: frozenset[int] | None,
    frontier_hist=NULL_HISTOGRAM,
) -> RouteColumns:
    """The array pass over ascending ``origins``: their routes at the
    ``keep`` ASes."""
    origin_array = np.asarray(origins, dtype=np.int64)
    grid = _sweep(
        adjacency, origin_array, tiebreak, salt, relevant, frontier_hist
    )
    return _kept_routes(adjacency.index, origin_array, grid, keep)


def propagate(
    graph: ASGraph, origin: int, tiebreak: str = "asn", salt: int = 0
) -> dict[int, Route]:
    """Best route at every AS toward ``origin`` (single-origin API).

    ``salt`` varies the "hash" tie-break, producing an alternative but
    equally-valid routing plane — the mechanism behind multi-plane path
    diversity (see :class:`repro.core.pipeline.PipelineConfig`).
    """
    if origin not in graph:
        raise KeyError(f"origin AS{origin} not in graph")
    columns = _route_pass(
        _adjacency_of(graph), [origin], tiebreak, salt, None, None
    )
    return dict(RouteMap(columns)[origin].items())


def propagate_all(
    graph: ASGraph,
    origins: Iterable[int] | None = None,
    keep: Iterable[int] | None = None,
    tiebreak: str = "asn",
    salt: int = 0,
    tracer=NULL_TRACER,
    workers: int = 1,
    pool: "WorkerPool | None" = None,
) -> RoutingOutcome:
    """Propagate every origin and keep routes only at ``keep`` ASes.

    ``origins`` defaults to every AS that originates at least one
    prefix; ``keep`` defaults to all ASes (memory scales with
    ``len(origins) * len(keep)``, so pass the VP ASes when you only
    need collector views).

    The sweep is one array pass in this process. ``workers`` (validated
    ``>= 1``) and ``pool`` are accepted for callers that still pass
    them and change nothing.

    ``tracer`` wraps the sweep in a ``propagate.plane`` span, counts
    origins and kept routes, and samples per-level up-phase frontier
    sizes into the ``propagate.frontier`` histogram.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    with tracer.span(
        "propagate.plane", tiebreak=tiebreak, salt=salt,
    ) as span:
        adjacency = _adjacency_of(graph)
        if origins is None:
            origins = [asn for asn in graph.asns() if graph.node(asn).prefixes]
        keep_set = frozenset(keep) if keep is not None else None
        origin_list = sorted(set(origins))
        for origin in origin_list:
            if origin not in graph:
                raise KeyError(f"origin AS{origin} not in graph")
        relevant = (
            keep_closure(adjacency, keep_set) if keep_set is not None else None
        )
        columns = _route_pass(
            adjacency, origin_list, tiebreak, salt, keep_set, relevant,
            tracer.metrics.histogram("propagate.frontier"),
        )
        span.set(origins=len(origin_list), routes=len(columns))
        tracer.metrics.counter("propagate.origins").inc(len(origin_list))
        tracer.metrics.counter("propagate.routes").inc(len(columns))
    return RoutingOutcome(RouteMap(columns))
