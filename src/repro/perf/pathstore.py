"""Structure-of-arrays storage for the sanitized paths.

The sanitized paths are hundreds of thousands of records, each naming
a VP, a prefix and an :class:`repro.net.aspath.ASPath` — an object per
record would cost an attribute chase and a dict probe per element on
every pass. :class:`PathStore` holds them as contiguous numpy integer
arrays instead, deduplicated by path, in the column schema the spill
store (:mod:`repro.perf.spill`) persists:

* ``tokens`` — every *distinct* path's ASNs, concatenated;
* ``offsets`` / ``lengths`` — where each distinct path lives in
  ``tokens``;
* ``record_path`` — record position → distinct-path id;
* ``record_vp`` / ``record_prefix`` — record position → VP id / prefix
  id, resolved through the side tables ``vp_table``
  (``(VantagePoint, country)`` per VP id) and ``prefix_table``
  (``(Prefix, country, addresses)`` per prefix id);
* ``record_origin`` — per-record origin ASN;
* ``record_addresses`` — per-record address counts, read through the
  prefix side table: IPv6 prefixes carry counts far beyond int64
  range;
* ``prefix_weight`` / ``record_weight`` — ``float(addresses)`` per
  prefix and per record, which only the kernels read (the cone
  kernel's address profiles, hegemony and CTI), derived on first use;
* :meth:`PathStore.asn_codes` — the sorted distinct ASNs and one code
  per token in the smallest unsigned dtype (``uint16`` for the medium
  world's 949 ASNs), memoised on first use: the one AS numbering the
  hegemony kernel's distinct-ASN scan and the cone kernel's pair codes
  and suffix interning share. No int64 per token is held.

:class:`ColumnBuilder` is the one place these ids are assigned: it
interns paths, VPs (by IP) and prefixes in first-appearance order,
appending to one ``array('q')`` buffer per int64 column — record by
record (by value), or a window of accepted rows at a time keyed on the
judge's table ids (how the sanitizer fills it). The judge keys each
path on the table id of its clean value, so ``extend`` appends a new
key's tokens with no lookup and no hash index; only paths the builder
holds that no key brought in (a resumed spill's) are matched by value,
once per new key. A ``PathStore`` adopts a builder's buffers as
its columns; :class:`repro.perf.spill.SpillWriter` is the same builder
flushing its buffers to the spill files — so both backends hold the
same values, and differ only in where the columns live. On both, the
distinct-path tuple ``paths`` is derived from the token columns on
first use.

Neither backend keeps record objects. ``records`` (every record) and
:meth:`PathStore.records_at` (the records at some positions, what
``View.records`` returns) are a façade that rebuilds
:class:`~repro.core.sanitize.PathRecord` objects from the columns on
access — for exports and tests; the ranking
path reads columns only. A store built from a record sequence
(``PathStore(records)``) adds them to a fresh builder one by one.

Every value handed back to consumers is a plain Python ``int``, so
downstream products are byte-identical to the object-walking path. The
equivalence tests in ``tests/perf/test_pathstore.py`` and the golden
ranking bytes pin this.

The store is *derived, read-only* state: built once per PathSet (see
:meth:`repro.core.sanitize.PathSet.store`) and never mutated — the
lint rule R007 extends to its arrays.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.core.sanitize import PathRecord, _grown
from repro.net.aspath import ASPath, dense_codes

if TYPE_CHECKING:
    from repro.bgp.collectors import VantagePoint
    from repro.net.prefix import Prefix
    from repro.perf.cone import SuffixTable

#: The int64 columns, in the spill's file order: ``tokens`` holds one
#: element per hop of a distinct path, ``offsets``/``lengths`` one per
#: distinct path, the ``record_*`` columns one per record.
COLUMNS = (
    "tokens", "offsets", "lengths",
    "record_path", "record_vp", "record_prefix", "record_origin",
)


class ColumnBuilder:
    """Interns records into the store's columns: the one place path,
    VP (by IP) and prefix ids are assigned, each in first-appearance
    order.

    :meth:`add` appends one record's row, interning its path, VP and
    prefix by value. :meth:`extend` appends a block of rows given as
    keys into one pass's entity tables (a
    :class:`~repro.core.sanitize.Judge`'s tables, whose path keys are
    equal exactly when the clean values are): a key seen in an earlier
    block keeps its store id, and a new key's entity is interned — its
    path's tokens copied, with no lookup by value — so the ids equal
    :meth:`add`'s row by row. Both append to ``buffers`` — one
    ``array('q')`` per column, in :data:`COLUMNS` order — and grow the
    ``vp_table`` / ``prefix_table`` side tables.

    The path columns (``tokens``/``offsets``/``lengths``) hold every
    interned path and are the only path state: :meth:`add`'s dict on
    ASN tuples catches up from them lazily. A path no key brought in —
    a resumed spill's, or one :meth:`add` interned — may equal a new
    key's value, so while the builder holds one, :meth:`extend` matches
    each new key's path by value, once, through that dict; a builder
    fed by keys alone does no lookup. ``record_count`` counts every row
    added, including rows a subclass has already flushed out of the
    buffers.
    """

    __slots__ = (
        "buffers", "vp_ids", "prefix_ids", "vp_table", "prefix_table",
        "record_count", "_origin", "_by_value", "_keyed_paths",
        "_table_vp", "_table_prefix", "_table_path",
    )

    def __init__(self) -> None:
        self.buffers = tuple(array("q") for _ in COLUMNS)
        self.vp_ids: dict[str, int] = {}
        self.prefix_ids: dict["Prefix", int] = {}
        self.vp_table: list[tuple["VantagePoint", str]] = []
        self.prefix_table: list[tuple["Prefix", str, int]] = []
        self.record_count = 0
        #: the origin ASN of every interned path
        self._origin = array("q")
        #: ASN tuple → path id, for the paths indexed so far
        self._by_value: dict[tuple[int, ...], int] = {}
        #: the paths :meth:`extend` appended under a new key
        self._keyed_paths = 0
        #: table id → store id (-1: not seen yet) for :meth:`extend`
        self._table_vp = np.empty(0, dtype=np.int64)
        self._table_prefix = np.empty(0, dtype=np.int64)
        self._table_path = np.empty(0, dtype=np.int64)

    @property
    def path_count(self) -> int:
        """Distinct paths interned."""
        return len(self.buffers[2])

    @property
    def tokens_total(self) -> int:
        """Tokens of the distinct paths interned."""
        return len(self.buffers[0])

    def add(self, record: "PathRecord") -> None:
        """Intern one record and append its row."""
        path = record.path
        record_path, record_vp, record_prefix, record_origin = self.buffers[3:]
        record_path.append(self._path_id(path.asns))
        record_vp.append(self._vp_id(record.vp, record.vp_country))
        record_prefix.append(self._prefix_id(
            record.prefix, record.prefix_country, record.addresses
        ))
        record_origin.append(path.asns[-1])
        self.record_count += 1

    def extend(
        self,
        vps: np.ndarray,
        prefixes: np.ndarray,
        paths: np.ndarray,
        vp_rows: Callable[[np.ndarray], Iterable[tuple["VantagePoint", str]]],
        prefix_rows: Callable[[np.ndarray], Iterable[tuple["Prefix", str, int]]],
        path_columns: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    ) -> None:
        """Append a block of rows given as keys into one pass's entity
        tables — ``vps``, ``prefixes`` and ``paths`` hold one int64 key
        per row, and two path keys are equal exactly when their paths
        are. Keys seen in an earlier block keep their store ids; the
        rest are interned in first-appearance order. Given an array of
        those first-appearing keys, ``vp_rows`` yields their
        ``(VantagePoint, country)``, ``prefix_rows`` their ``(Prefix,
        country, addresses)`` and ``path_columns`` their paths as
        ``(tokens, lengths)`` columns. Equal to :meth:`add` per row."""
        vp_id = self._keyed(
            "_table_vp", vps,
            lambda ids: [self._vp_id(vp, country) for vp, country in vp_rows(ids)],
        )
        prefix_id = self._keyed(
            "_table_prefix", prefixes,
            lambda ids: [self._prefix_id(*row) for row in prefix_rows(ids)],
        )
        path_id = self._keyed(
            "_table_path", paths,
            lambda ids: self._append_paths(*path_columns(ids)),
        )
        origin = np.frombuffer(self._origin, dtype=np.int64)[path_id]
        record_path, record_vp, record_prefix, record_origin = self.buffers[3:]
        record_path.frombytes(path_id.tobytes())
        record_vp.frombytes(vp_id.tobytes())
        record_prefix.frombytes(prefix_id.tobytes())
        record_origin.frombytes(origin.tobytes())
        self.record_count += len(paths)

    def _keyed(
        self, name: str, ids: np.ndarray, intern: Callable[[np.ndarray], Any]
    ) -> np.ndarray:
        """Store ids for one block of table ``ids``, through the map in
        attribute ``name`` (table id → store id, -1: not seen). Ids not
        seen yet are handed to ``intern`` once each, in first-appearance
        order."""
        if not len(ids):
            return np.empty(0, dtype=np.int64)
        known = _grown(getattr(self, name), int(ids.max()) + 1, -1)
        setattr(self, name, known)
        fresh = ids[known[ids] < 0]
        if len(fresh):
            distinct, first = np.unique(fresh, return_index=True)
            distinct = distinct[np.argsort(first, kind="stable")]
            known[distinct] = np.asarray(intern(distinct), dtype=np.int64)
        return known[ids]

    # -- paths ---------------------------------------------------------------

    def _index(self) -> dict[tuple[int, ...], int]:
        """The ASN-tuple dict, caught up with every interned path."""
        by_value = self._by_value
        tokens, offsets, lengths = self.buffers[:3]
        for pid in range(len(by_value), len(lengths)):
            start = offsets[pid]
            by_value[tuple(tokens[start:start + lengths[pid]])] = pid
        return by_value

    def _path_id(self, asns: tuple[int, ...]) -> int:
        """The id of one path, interned by value."""
        by_value = self._by_value
        tokens, offsets, lengths = self.buffers[:3]
        if len(by_value) < len(lengths):  # catch up with extend
            self._index()
        pid = by_value.get(asns)
        if pid is None:
            pid = by_value[asns] = len(lengths)
            offsets.append(len(tokens))
            lengths.append(len(asns))
            tokens.extend(asns)
            self._origin.append(asns[-1])
        return pid

    def _append_paths(self, tokens: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """The ids of the distinct new keys' paths ``tokens``/``lengths``
        hold, in order: each a new path, unless the builder holds a path
        no key brought in and the value is among those."""
        stored, offsets, sizes = self.buffers[:3]
        ends = np.cumsum(lengths)
        if self.path_count > self._keyed_paths:
            by_value, flat = self._index(), tokens.tolist()
            ids = np.fromiter(
                (
                    by_value.get(tuple(flat[start:end]), -1)
                    for start, end in zip((ends - lengths).tolist(), ends.tolist())
                ),
                dtype=np.int64, count=len(lengths),
            )
        else:
            ids = np.full(len(lengths), -1, dtype=np.int64)
        new = ids < 0
        count = int(np.count_nonzero(new))
        ids[new] = len(sizes) + np.arange(count, dtype=np.int64)
        self._keyed_paths += count
        new_lengths = lengths[new]
        offsets.frombytes(
            (len(stored) + np.cumsum(new_lengths) - new_lengths).tobytes()
        )
        sizes.frombytes(new_lengths.tobytes())
        stored.frombytes(tokens[np.repeat(new, lengths)].tobytes())
        self._origin.frombytes(tokens[ends[new] - 1].tobytes())
        return ids

    # -- VPs and prefixes --------------------------------------------------

    def _vp_id(self, vp: "VantagePoint", country: str) -> int:
        vid = self.vp_ids.get(vp.ip)
        if vid is None:
            vid = self.vp_ids[vp.ip] = len(self.vp_table)
            self.vp_table.append((vp, country))
        return vid

    def _prefix_id(self, prefix: "Prefix", country: str, addresses: int) -> int:
        fid = self.prefix_ids.get(prefix)
        if fid is None:
            fid = self.prefix_ids[prefix] = len(self.prefix_table)
            self.prefix_table.append((prefix, country, addresses))
        return fid


def _paths(
    tokens: list[int], offsets: np.ndarray, lengths: np.ndarray
) -> tuple[ASPath, ...]:
    """The distinct paths the token columns hold, in id order."""
    return tuple(
        ASPath.trusted(tuple(tokens[start:start + length]))
        for start, length in zip(offsets.tolist(), lengths.tolist())
    )


class PathStore:
    """Interned, flattened columns of a record sequence."""

    __slots__ = (
        "paths", "tokens", "offsets", "lengths",
        "record_path", "record_origin", "record_vp",
        "record_prefix", "prefix_weight", "record_weight", "vp_table",
        "prefix_table",
        "_token_list", "_pair_buckets", "_suffix_memo", "_asn_codes",
        "_distinct",
    )

    def __init__(
        self,
        records: Iterable["PathRecord"] = (),
        builder: ColumnBuilder | None = None,
    ) -> None:
        """The store of ``builder``'s rows (as the sanitizer fills one
        window by window; a fresh builder by default) followed by
        ``records``, added one by one."""
        if builder is None:
            builder = ColumnBuilder()
        for record in records:
            builder.add(record)
        self.vp_table = builder.vp_table
        self.prefix_table = builder.prefix_table
        for name, buffer in zip(COLUMNS, builder.buffers):
            setattr(self, name, np.frombuffer(buffer, dtype=np.int64))
        self._token_list: list[int] | None = None
        self._pair_buckets: dict[tuple[str, str], array] | None = None
        self._suffix_memo: tuple[frozenset, "SuffixTable"] | None = None
        self._asn_codes: tuple[np.ndarray, np.ndarray] | None = None
        self._distinct: tuple[Any, Any, Any, Any] | None = None

    def __getattr__(self, name: str) -> Any:
        # derived columns, filled on first use (fires only while the
        # slot is unset). The distinct-path tuple: one ASPath per path,
        # in id order, from the token columns
        if name == "paths":
            paths = _paths(self.token_list(), self.offsets, self.lengths)
            self.paths = paths
            return paths
        # the kernels' weight columns: float() per prefix, and its
        # gather through the prefix ids
        if name == "prefix_weight":
            weights = np.asarray(
                [float(addresses) for _, _, addresses in self.prefix_table],
                dtype=np.float64,
            )
            self.prefix_weight = weights
            return weights
        if name == "record_weight":
            weights = self.prefix_weight[self.record_prefix]
            self.record_weight = weights
            return weights
        raise AttributeError(name)

    @property
    def records(self) -> Sequence["PathRecord"]:
        """Every record, rebuilt from the columns on access."""
        return _LazyRecords(self, None)

    def records_at(self, positions: np.ndarray) -> Sequence["PathRecord"]:
        """The records at ascending ``positions``, rebuilt from the
        columns on access."""
        return _LazyRecords(self, positions)

    @property
    def record_addresses(self) -> Sequence[int]:
        """Per-record address counts, read through the prefix side
        table (IPv6 counts exceed int64, so they never enter a flat
        column)."""
        return _AddressColumn(self, None)

    def record_paths(self) -> Iterator["ASPath"]:
        """Every record's path in record order, from the distinct-path
        tuple (no record is built)."""
        return map(self.paths.__getitem__, self.record_path.tolist())

    def __len__(self) -> int:
        """Number of distinct paths stored."""
        return len(self.offsets)

    @property
    def record_count(self) -> int:
        return len(self.record_path)

    def asn_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """``(asns, codes)``: the sorted distinct ASNs of the token
        column, and per token its index into ``asns`` in the smallest
        unsigned dtype that holds one (memoised). The store-wide AS
        numbering the hegemony and cone kernels share, from one
        :func:`~repro.net.aspath.dense_codes` call."""
        if self._asn_codes is None:
            asns, codes = dense_codes(self.tokens)
            dtype = np.min_scalar_type(max(len(asns) - 1, 0))
            self._asn_codes = (asns, codes.astype(dtype))
        return self._asn_codes

    def distinct_asns(self) -> tuple[Any, Any, Any, Any]:
        """``(ids, offsets, lengths, asns)``: every path's
        ``unique_asns()`` as columns of indices into ``asns``, the
        sorted distinct ASNs (memoised; see
        :func:`repro.perf.hegemony.distinct_path_asns`)."""
        if self._distinct is None:
            from repro.perf.hegemony import distinct_path_asns

            asns, codes = self.asn_codes()
            self._distinct = (
                *distinct_path_asns(codes, self.offsets, self.lengths), asns,
            )
        return self._distinct

    def transit_suffixes(
        self, p2c: frozenset[tuple[int, int]]
    ) -> "SuffixTable":
        """Every distinct path's transit suffix under the edge set
        ``p2c``, interned (see :func:`repro.perf.cone.intern_suffixes`).

        Memoised for one edge set at a time, matched by identity first
        (:meth:`repro.topology.model.ASGraph.p2c_edges` hands out one
        version-memoised frozenset) and by value otherwise, so every
        view over the store shares one interning pass.
        """
        memo = self._suffix_memo
        if memo is None or (memo[0] is not p2c and memo[0] != p2c):
            from repro.perf.cone import intern_suffixes

            memo = self._suffix_memo = (p2c, intern_suffixes(self, p2c))
        return memo[1]

    def token_list(self) -> list[int]:
        """The token column as plain Python ints (memoised) — the form
        consumers slice path tuples from, so numpy scalars never leak
        into downstream products."""
        if self._token_list is None:
            self._token_list = self.tokens.tolist()
        return self._token_list

    # -- grouping ----------------------------------------------------------

    def pair_buckets(self) -> dict[tuple[str, str], array]:
        """Record positions grouped by ``(vp_country, prefix_country)``
        — each bucket an ascending ``array('q')``, keys in
        first-appearance order — computed once from the id columns and
        side tables and shared by every
        :class:`repro.perf.index.PathIndex` over this store."""
        if self._pair_buckets is None:
            vp_countries = [country for _, country in self.vp_table]
            prefix_countries = [country for _, country, _ in self.prefix_table]
            codes: dict[str, int] = {}
            for code in vp_countries + prefix_countries:
                codes.setdefault(code, len(codes))
            width = len(codes)
            vp_code = np.asarray(
                [codes[code] for code in vp_countries], dtype=np.int64
            )
            prefix_code = np.asarray(
                [codes[code] for code in prefix_countries], dtype=np.int64
            )
            keys = vp_code[self.record_vp] * width + prefix_code[self.record_prefix]
            names = list(codes)
            groups = [
                (bucket, (names[key // width], names[key % width]))
                for bucket, key in _buckets(keys)
            ]
            # stable argsort keeps buckets ascending; re-keying by each
            # bucket's first position restores first-appearance order
            groups.sort(key=lambda item: item[0][0])
            self._pair_buckets = {pair: bucket for bucket, pair in groups}
        return self._pair_buckets


def _buckets(keys: np.ndarray) -> list[tuple[array, int]]:
    """Positions grouped by key with one stable argsort: per distinct
    key, its ascending positions as an ``array('q')``, with the key."""
    if not len(keys):
        return []
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    boundaries = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    group_starts = np.concatenate((np.zeros(1, dtype=np.int64), boundaries))
    groups = []
    for start, group in zip(group_starts.tolist(), np.split(order, boundaries)):
        bucket = array("q")
        bucket.frombytes(group.astype(np.int64, copy=False).tobytes())
        groups.append((bucket, int(sorted_keys[start])))
    return groups


#: records rebuilt per column gather when a façade is iterated
_ROWS_PER_GATHER = 65_536


class _Facade(Sequence):
    """A read-only per-record sequence over a store's columns at
    ascending ``positions`` (every record when ``None``); a subclass
    reads one record's value in :meth:`_at`."""

    __slots__ = ("_store", "_positions")

    def __init__(self, store: PathStore, positions: np.ndarray | None) -> None:
        self._store = store
        self._positions = positions

    def __len__(self) -> int:
        if self._positions is None:
            return self._store.record_count
        return len(self._positions)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        count = len(self)
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("record position out of range")
        return self._at(
            index if self._positions is None else int(self._positions[index])
        )

    def _at(self, position: int) -> Any:
        raise NotImplementedError


class _LazyRecords(_Facade):
    """The record façade: records rebuilt from the columns on each
    access — entities shared, one VantagePoint / Prefix / ASPath object
    per distinct id, so equal positions yield equal records. Iteration
    gathers the id columns a block at a time."""

    __slots__ = ()

    def _at(self, position: int) -> "PathRecord":
        return next(_rebuilt(self._store, slice(position, position + 1)))

    def __eq__(self, other: object) -> bool:
        # a record sequence equals any sequence of equal records
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]

    def __iter__(self) -> Iterator["PathRecord"]:
        positions = self._positions
        for start in range(0, len(self), _ROWS_PER_GATHER):
            stop = start + _ROWS_PER_GATHER
            yield from _rebuilt(
                self._store,
                slice(start, stop) if positions is None
                else positions[start:stop],
            )


def _rebuilt(store: PathStore, rows: Any) -> Iterator["PathRecord"]:
    """The records at ``rows`` (a slice or an array of positions)."""
    vp_table, prefix_table, paths = store.vp_table, store.prefix_table, store.paths
    for vid, fid, pid in zip(
        store.record_vp[rows].tolist(),
        store.record_prefix[rows].tolist(),
        store.record_path[rows].tolist(),
    ):
        vp, vp_country = vp_table[vid]
        prefix, prefix_country, addresses = prefix_table[fid]
        yield PathRecord(
            vp, vp_country, prefix, prefix_country, paths[pid], addresses
        )


class _AddressColumn(_Facade):
    """Per-record address counts resolved through the prefix side
    table."""

    __slots__ = ()

    def _at(self, position: int) -> int:
        store = self._store
        return store.prefix_table[store.record_prefix[position]][2]

    def __iter__(self) -> Iterator[int]:
        counts = [addresses for _, _, addresses in self._store.prefix_table]
        return map(counts.__getitem__, self._store.record_prefix.tolist())
