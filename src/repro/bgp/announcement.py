"""BGP announcement records as consumed by the sanitization pipeline.

The paper's unit of input is one (VP, prefix, AS path) observation from
one daily RIB (248M of them in April 2021). :class:`Announcement` is
that unit; :class:`RibRecord` is the deduplicated form our lazy RIB
series exposes (one per VP × prefix, annotated with how many of the
five days it appeared in).

:class:`RecordWindow` is the columnar form of a block of RibRecords —
int64 VP, prefix and path ids over shared entity tables, plus the day
counts — which the Table-1 sanitizer judges with array operations. The
tables hold their paths as token columns
(:class:`~repro.net.aspath.PathColumns`), so the judge gathers a
window's paths without any path object; :meth:`RecordWindow.records`
builds each distinct path of a window once.
:meth:`repro.bgp.rib.RibSeries.windows` cuts them straight from its
VP × prefix grid; :func:`record_windows` cuts them from any record
stream.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.bgp.collectors import VantagePoint
from repro.net.aspath import ASPath, PathColumns
from repro.net.prefix import Prefix


@dataclass(frozen=True, slots=True)
class Announcement:
    """One observed route: a VP reported this path to this prefix."""

    vp: VantagePoint
    prefix: Prefix
    path: ASPath

    @property
    def origin(self) -> int:
        """The AS originating the prefix (last ASN on the path)."""
        return self.path.origin

    def __str__(self) -> str:
        return f"{self.vp.ip} {self.prefix} [{self.path}]"


@dataclass(frozen=True, slots=True)
class RibRecord:
    """A deduplicated announcement with day-level presence metadata."""

    vp: VantagePoint
    prefix: Prefix
    path: ASPath
    days_present: int
    total_days: int

    @property
    def stable(self) -> bool:
        """Whether the prefix appeared in every daily RIB (paper §3.1)."""
        return self.days_present == self.total_days

    def to_announcement(self) -> Announcement:
        """Collapse back to a single announcement record."""
        return Announcement(self.vp, self.prefix, self.path)


#: Records per :class:`RecordWindow` unless a caller asks otherwise —
#: the bound on every columnar pass over RIB records, so judging a
#: window's distinct entities never holds more than this many rows.
WINDOW = 65_536


@dataclass(frozen=True, slots=True)
class RecordTables:
    """The entities a :class:`RecordWindow`'s id columns point at.

    A window source shares one tables object across all its windows;
    the tables may grow as later windows are cut, never change.
    """

    vps: Sequence[VantagePoint]
    prefixes: Sequence[Prefix]
    paths: PathColumns


@dataclass(frozen=True, slots=True)
class RecordWindow:
    """A block of deduplicated RIB records as int64 id columns.

    Row ``i`` is the record ``RibRecord(tables.vps[vp[i]],
    tables.prefixes[prefix[i]], tables.paths[path[i]], days[i],
    total_days[i])``; rows keep their input order.
    """

    tables: RecordTables
    vp: np.ndarray
    prefix: np.ndarray
    path: np.ndarray
    days: np.ndarray
    total_days: np.ndarray

    def __len__(self) -> int:
        return len(self.vp)

    def record(self, row: int) -> RibRecord:
        """The record at one row."""
        tables = self.tables
        return RibRecord(
            tables.vps[self.vp[row]], tables.prefixes[self.prefix[row]],
            tables.paths[self.path[row]], int(self.days[row]),
            int(self.total_days[row]),
        )

    def records(self) -> Iterator[RibRecord]:
        """Every row as a :class:`RibRecord`, in order (each distinct
        path built once)."""
        tables = self.tables
        vps, prefixes = tables.vps, tables.prefixes
        for vp, prefix, path, days, total_days in zip(
            self.vp.tolist(), self.prefix.tolist(),
            tables.paths.objects(self.path),
            self.days.tolist(), self.total_days.tolist(),
        ):
            yield RibRecord(vps[vp], prefixes[prefix], path, days, total_days)

    def rows(self, start: int) -> "RecordWindow":
        """The rows from ``start`` on, as a window over the same
        tables."""
        return RecordWindow(
            self.tables, self.vp[start:], self.prefix[start:],
            self.path[start:], self.days[start:], self.total_days[start:],
        )


def record_windows(
    records: Iterable[RibRecord], size: int = WINDOW
) -> Iterator[RecordWindow]:
    """Cut a record stream into windows of ``size`` rows (the last may
    be shorter), over tables interned from the stream: VPs, prefixes
    and paths by value, each in first-appearance order — the paths as
    the same token columns :meth:`repro.bgp.rib.RibSeries.windows`
    hands out, appended a window at a time.

    Reads lazily, one window at a time — the adapter that lets every
    columnar consumer of :class:`RecordWindow` take plain records.
    """
    if size < 1:
        raise ValueError("window size must be >= 1")
    vps: list[VantagePoint] = []
    prefixes: list[Prefix] = []
    paths = PathColumns()
    tables = RecordTables(vps, prefixes, paths)
    vp_ids: dict[VantagePoint, int] = {}
    prefix_ids: dict[Prefix, int] = {}
    #: paths by their ASN tuples (hashed in C, unlike ASPath's own hash)
    path_ids: dict[tuple[int, ...], int] = {}
    # streams run VP by VP, so the previous record's VP is the usual hit
    last_vp, last_vid = None, -1
    stream = iter(records)
    while True:
        columns = tuple(array("q") for _ in range(5))
        vp_col, prefix_col, path_col, days_col, total_col = columns
        fresh: list[tuple[int, ...]] = []
        for record in islice(stream, size):
            vp = record.vp
            if vp is last_vp:
                vid = last_vid
            else:
                vid = vp_ids.get(vp)
                if vid is None:
                    vid = vp_ids[vp] = len(vps)
                    vps.append(vp)
                last_vp, last_vid = vp, vid
            prefix = record.prefix
            fid = prefix_ids.get(prefix)
            if fid is None:
                fid = prefix_ids[prefix] = len(prefixes)
                prefixes.append(prefix)
            asns = record.path.asns
            pid = path_ids.get(asns)
            if pid is None:
                pid = path_ids[asns] = len(path_ids)
                fresh.append(asns)
            vp_col.append(vid)
            prefix_col.append(fid)
            path_col.append(pid)
            days_col.append(record.days_present)
            total_col.append(record.total_days)
        if not vp_col:
            return
        paths.extend(
            np.fromiter(chain.from_iterable(fresh), dtype=np.int64),
            np.fromiter(map(len, fresh), dtype=np.int64, count=len(fresh)),
        )
        yield RecordWindow(
            tables, *(np.frombuffer(column, dtype=np.int64) for column in columns)
        )
