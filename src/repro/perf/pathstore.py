"""Structure-of-arrays storage for the sanitized paths.

A :class:`repro.core.sanitize.PathSet` holds hundreds of thousands of
records, each pointing at an :class:`repro.net.aspath.ASPath` — an
object per path, a tuple per object, a Python int per hop. The hot
consumers (transit-suffix resolution, origin bucketing) walk all of
them, paying an attribute chase and a dict probe per element.

:class:`PathStore` flattens the same information into contiguous
integer arrays, deduplicated by path:

* ``tokens`` — every *distinct* path's ASNs, concatenated;
* ``offsets`` / ``lengths`` — where each distinct path lives in
  ``tokens``;
* ``record_path`` — record position → distinct-path id;
* ``record_origin`` — per-record origin ASN column for the index's
  grouped walks;
* ``record_addresses`` — per-record address counts, kept as a plain
  tuple: IPv6 prefixes carry counts far beyond int64 range;
* ``record_vp`` / ``record_weight`` — per-record VP id (VP IPs interned
  in first-appearance order) and ``float(addresses)``, the two columns
  only the hegemony kernel (:mod:`repro.perf.hegemony`) reads, derived
  on first use.

Arrays are numpy when available (vectorized suffix computation, C-speed
grouping) with a stdlib ``array`` fallback that preserves the layout
and the API; either way every value handed back to consumers is a
plain Python ``int``, so downstream products are byte-identical to the
object-walking path. The equivalence tests in
``tests/perf/test_pathstore.py`` and the golden ranking bytes pin this.

The store is *derived, read-only* state: built once per PathSet (see
:meth:`repro.core.sanitize.PathSet.store`) and never mutated — the
lint rule R007 extends to its arrays.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Any, Iterable, Sequence

try:  # numpy is optional: the store degrades to stdlib arrays
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the fallback tests
    _np = None

from array import array as _stdlib_array

if TYPE_CHECKING:
    from repro.core.sanitize import PathRecord
    from repro.net.aspath import ASPath
    from repro.perf.cache import SuffixCache

HAVE_NUMPY = _np is not None


def _int_array(values: list[int]):
    """A contiguous int64 column (numpy if available)."""
    if _np is not None:
        return _np.asarray(values, dtype=_np.int64)
    return _stdlib_array("q", values)


def _float_array(values: list[float]) -> Any:
    """A contiguous float64 column (numpy if available)."""
    if _np is not None:
        return _np.asarray(values, dtype=_np.float64)
    return _stdlib_array("d", values)


class PathStore:
    """Interned, flattened view of a record sequence's paths."""

    __slots__ = (
        "records", "paths", "path_ids", "tokens", "offsets", "lengths",
        "record_path", "record_origin", "record_addresses", "record_vp",
        "record_weight", "_token_list", "_pair_buckets", "_starts_memo",
        "_distinct",
    )

    def __init__(self, records: Sequence["PathRecord"]) -> None:
        #: one representative ASPath object per distinct path, in first-
        #: appearance order (the suffix cache is keyed by these objects)
        path_ids: dict["ASPath", int] = {}
        paths: list["ASPath"] = []
        tokens: list[int] = []
        offsets: list[int] = []
        lengths: list[int] = []
        record_path: list[int] = []
        record_origin: list[int] = []
        record_addresses: list[int] = []
        for record in records:
            path = record.path
            pid = path_ids.get(path)
            if pid is None:
                pid = path_ids[path] = len(paths)
                paths.append(path)
                asns = path.asns
                offsets.append(len(tokens))
                lengths.append(len(asns))
                tokens.extend(asns)
            record_path.append(pid)
            record_origin.append(path.asns[-1])
            record_addresses.append(record.addresses)
        #: the source records, kept so lazily-derived groupings (the
        #: view pair buckets) can be built without re-threading them in
        self.records: tuple["PathRecord", ...] = tuple(records)
        self.paths: tuple["ASPath", ...] = tuple(paths)
        #: distinct path → its id (row in offsets/lengths)
        self.path_ids = path_ids
        self._token_list: list[int] | None = None
        self._pair_buckets: dict[tuple[str, str], list[int]] | None = None
        self._starts_memo: tuple[object, list[int]] | None = None
        self._distinct: tuple[Any, Any, Any, Any] | None = None
        self.tokens = _int_array(tokens)
        self.offsets = _int_array(offsets)
        self.lengths = _int_array(lengths)
        self.record_path = _int_array(record_path)
        self.record_origin = _int_array(record_origin)
        self.record_addresses = tuple(record_addresses)

    def __getattr__(self, name: str) -> Any:
        # the hegemony kernel's columns, filled on first use (fires only
        # while the slot is unset)
        if name == "record_vp":
            ips = list(map(attrgetter("vp.ip"), self.records))
            first_seen = dict.fromkeys(ips)
            vp_ids = dict(zip(first_seen, range(len(first_seen))))
            column = _int_array(list(map(vp_ids.__getitem__, ips)))
            self.record_vp = column
            return column
        if name == "record_weight":
            weights = _float_array(
                [float(addresses) for addresses in self.record_addresses]
            )
            self.record_weight = weights
            return weights
        raise AttributeError(name)

    def __len__(self) -> int:
        """Number of distinct paths stored."""
        return len(self.offsets)

    @property
    def record_count(self) -> int:
        return len(self.record_path)

    def distinct_asns(self) -> tuple[Any, Any, Any, Any]:
        """``(ids, offsets, lengths, asns)``: every path's
        ``unique_asns()`` as columns of indices into ``asns``, the
        sorted distinct ASNs (memoised; see
        :func:`repro.perf.hegemony.distinct_path_asns`)."""
        if self._distinct is None:
            from repro.perf.hegemony import distinct_path_asns

            self._distinct = distinct_path_asns(
                self.tokens, self.offsets, self.lengths
            )
        return self._distinct

    def prefix_addresses(self, positions: Iterable[int]) -> int:
        """Total addresses of the distinct prefixes of the records at
        ``positions`` (a prefix seen twice counts once)."""
        per_prefix = dict(map(
            attrgetter("prefix", "addresses"),
            map(self.records.__getitem__, positions),
        ))
        return sum(per_prefix.values())

    def token_list(self) -> list[int]:
        """The token column as plain Python ints (memoised) — the form
        consumers slice suffix tuples from, so numpy scalars never leak
        into downstream products."""
        if self._token_list is None:
            if _np is not None:
                self._token_list = self.tokens.tolist()
            else:
                self._token_list = list(self.tokens)
        return self._token_list

    # -- bulk transit suffixes ---------------------------------------------

    def suffix_starts(self, p2c: Iterable[tuple[int, int]]) -> list[int]:
        """Per distinct path, the token index its transit suffix starts
        at, under the given provider→customer edge set.

        Matches :meth:`repro.perf.cache.SuffixCache._compute` exactly:
        the suffix is the longest tail of the path whose adjacent pairs
        are all p2c links — ``start = (last non-p2c pair index) + 1``,
        or 0 when every pair is p2c.

        Memoised by edge-set *identity*: oracles hand out a stable
        frozenset (:meth:`repro.topology.model.ASGraph.p2c_edges` is
        version-memoised), so every cold suffix cache over the same
        oracle shares one bulk pass.
        """
        memo = self._starts_memo
        if memo is not None and memo[0] is p2c:
            return memo[1]
        starts = self._suffix_starts(p2c)
        self._starts_memo = (p2c, starts)
        return starts

    def _suffix_starts(self, p2c: Iterable[tuple[int, int]]) -> list[int]:
        if _np is not None:
            return self._suffix_starts_np(p2c)
        p2c_set = p2c if isinstance(p2c, (set, frozenset)) else frozenset(p2c)
        starts: list[int] = []
        tokens = self.tokens
        for pid in range(len(self.offsets)):
            offset = self.offsets[pid]
            length = self.lengths[pid]
            start = length - 1
            for index in range(length - 2, -1, -1):
                if (tokens[offset + index], tokens[offset + index + 1]) in p2c_set:
                    start = index
                else:
                    break
            starts.append(start)
        return starts

    def _suffix_starts_np(self, p2c: Iterable[tuple[int, int]]) -> list[int]:
        """Vectorized suffix starts: encode every adjacent token pair as
        one 64-bit code, test membership against the encoded edge set,
        then locate each path's last non-p2c pair with a searchsorted
        over the non-p2c positions."""
        np = _np
        count = len(self.offsets)
        if count == 0:
            return []
        tokens = self.tokens
        offsets = self.offsets
        pair_counts = self.lengths - 1
        if len(tokens) == count:  # every path is single-hop: no pairs
            return [0] * count
        # pack each adjacent pair into one code; uint64 so 4-byte ASNs
        # (up to 2^32 - 1) cannot overflow the shifted half
        unsigned = tokens.astype(np.uint64)
        codes = (unsigned[:-1] << np.uint64(32)) | unsigned[1:]
        # drop the phantom pairs straddling consecutive paths (the
        # token ending path p next to the token starting path p+1), so
        # what remains is each path's own pairs, concatenated in order
        valid = np.ones(len(codes), dtype=bool)
        valid[offsets[1:] - 1] = False
        codes = codes[valid]
        edges = list(p2c)
        if edges:
            edge_codes = np.fromiter(
                ((left << 32) | right for left, right in edges),
                dtype=np.uint64,
                count=len(edges),
            )
            edge_codes.sort()
            slots = np.searchsorted(edge_codes, codes)
            slots[slots == len(edge_codes)] = 0
            is_p2c = edge_codes[slots] == codes
        else:
            is_p2c = np.zeros(len(codes), dtype=bool)
        # the suffix starts right after the path's last non-p2c pair
        # (at 0 when every pair is p2c); find that pair per path by
        # bisecting each path's pair-range end into the sorted non-p2c
        # positions
        plain = np.flatnonzero(~is_p2c)
        if len(plain) == 0:
            return [0] * count
        ends = np.cumsum(pair_counts)
        begins = ends - pair_counts
        slot = np.searchsorted(plain, ends) - 1
        last = plain[np.maximum(slot, 0)]
        in_range = (slot >= 0) & (last >= begins)
        starts = np.where(in_range, last - begins + 1, 0)
        return starts.tolist()

    def prime_suffix_cache(self, cache: "SuffixCache") -> int:
        """Fill ``cache.table`` for every distinct path in one bulk
        pass; returns how many entries were installed.

        Only applies when the cache's oracle exposes a flat p2c edge
        set (``cache._p2c``); suffix tuples contain plain Python ints,
        so a primed cache is value-identical to one warmed lazily.
        """
        p2c = cache._p2c
        if p2c is None:
            return 0
        starts = self.suffix_starts(p2c)
        table = cache.table
        installed = 0
        token_list = self.token_list()
        for pid, path in enumerate(self.paths):
            if path in table:
                continue
            offset = int(self.offsets[pid])
            end = offset + int(self.lengths[pid])
            table[path] = tuple(token_list[offset + starts[pid]:end])
            installed += 1
        return installed

    # -- grouping ----------------------------------------------------------

    def pair_buckets(self) -> dict[tuple[str, str], list[int]]:
        """Record positions grouped by ``(vp_country, prefix_country)``
        — each bucket ascending, keys in first-appearance order: the
        exact dict :class:`repro.perf.index.PathIndex` builds with its
        full-record scan, computed once here and shared by every index
        over this store (built lazily on first use)."""
        if self._pair_buckets is None:
            buckets: dict[tuple[str, str], list[int]] = {}
            for position, record in enumerate(self.records):
                pair = (record.vp_country, record.prefix_country)
                bucket = buckets.get(pair)
                if bucket is None:
                    buckets[pair] = [position]
                else:
                    bucket.append(position)
            self._pair_buckets = buckets
        return self._pair_buckets

    def origin_buckets(self) -> dict[int, list[int]]:
        """Record positions grouped by origin ASN — each bucket in
        ascending position order, keys in first-appearance order —
        exactly the dict a stable per-record scan would build."""
        origins = self.record_origin
        if _np is not None and len(origins):
            np = _np
            order = np.argsort(origins, kind="stable")
            sorted_origins = origins[order]
            boundaries = np.flatnonzero(
                sorted_origins[1:] != sorted_origins[:-1]
            ) + 1
            group_starts = np.concatenate(
                (np.zeros(1, dtype=np.int64), boundaries)
            )
            groups = [
                (group.tolist(), int(sorted_origins[start]))
                for start, group in zip(
                    group_starts.tolist(), np.split(order, boundaries)
                )
            ]
            # stable argsort keeps each bucket ascending; re-keying by
            # bucket[0] (the origin's first record) restores the naive
            # scan's first-appearance dict order
            groups.sort(key=lambda item: item[0][0])
            return {origin: bucket for bucket, origin in groups}
        buckets: dict[int, list[int]] = {}
        for position, origin in enumerate(origins):
            key = int(origin)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [position]
            else:
                bucket.append(position)
        return buckets
