"""Out-of-core PathStore: append-only spill files + an mmap-backed store.

The in-memory :class:`repro.perf.pathstore.PathStore` assumes the full
sanitized record list fits in RAM — fine at the catalog's ``small`` /
``default`` scale, structurally impossible for the ``large`` tier's
millions of records. This module is the spill half of the out-of-core
engine:

* :class:`SpillWriter` is the store's
  :class:`~repro.perf.pathstore.ColumnBuilder` with its buffers flushed
  to a directory: flat native-endian int64 column files
  (``tokens`` / ``offsets`` / ``lengths`` for the interned distinct
  paths, ``record_path`` / ``record_vp`` / ``record_prefix`` /
  ``record_origin`` per record) plus two small JSONL side tables
  (``vps.jsonl``, ``prefixes.jsonl``) holding the entities a record id
  points at. Peak writer memory is the interning state (the path
  columns and the side tables, bounded by distinct entities) plus one
  bounded flush buffer — never the record set.
* :class:`MmapPathStore` maps those columns back read-only behind the
  exact :class:`~repro.perf.pathstore.PathStore` interface (it *is* a
  ``PathStore`` subclass, with the same column schema), so
  :class:`~repro.perf.index.PathIndex`, the metric kernels and every
  ranking consumer work unchanged. Its record façade, address column
  and weight column are the in-memory store's own; pair buckets are
  built in one pass over the mapped columns.
* :func:`spill_windows` runs the Table-1 judge
  (:class:`repro.core.sanitize.Judge`, through
  :func:`~repro.core.sanitize.sanitize_into`) over record windows into
  a spill directory and returns a :class:`~repro.core.sanitize.PathSet`
  over the mapped store — what the pipeline uses when
  ``store_backend="mmap"``; :func:`sanitize_to_store` is the same over
  a record stream cut into windows of ``flush_every`` records.

Crash safety: at the end of every window the writer flushes its
buffers and atomically rewrites ``progress.json`` (consumed input
records, per-file element counts, the Table-1 report counts), so a
checkpoint always falls on a window boundary. Resuming truncates every
column file and side table back to the last checkpoint, rebuilds the
builder's interning state from them, restores the report counts
(samples are not preserved across a resume), skips the
already-consumed input records — the input stream is
seed-deterministic and replayable — and continues; the sealed result is
byte-identical to an uninterrupted ingestion. ``manifest.json`` marks a
sealed, complete spill. A damaged directory — a missing or short column
file, an unreadable manifest, checkpoint or side table, side tables
whose row counts disagree with them, path columns that are not whole
non-empty paths back to back, a prefix row whose address count is not a
non-negative integer — raises :class:`SpillFormatError` naming the
file, on open and on resume; a record id outside its table raises it
on open.

Like the in-memory store, the mapped arrays are derived, read-only
state (the maps are ``ACCESS_READ``; lint rule R007 covers this class
too).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

import numpy as np

from repro.bgp.announcement import RecordWindow, RibRecord, record_windows
from repro.bgp.collectors import VantagePoint
from repro.core.sanitize import (
    REJECT_CATEGORIES,
    FilterReport,
    Judge,
    PathSet,
    sanitize_into,
)
from repro.net.prefix import Prefix
from repro.obs.trace import NULL_TRACER, AnyTracer
from repro.perf.pathstore import COLUMNS, ColumnBuilder, PathStore

if TYPE_CHECKING:
    from repro.geo.prefix_geo import PrefixGeolocation
    from repro.geo.vp_geo import VPGeolocator
    from repro.resilience.quarantine import Quarantine

FORMAT_NAME = "repro-spill"
FORMAT_VERSION = 1
#: input records per window (and so per checkpoint) of an ingestion
FLUSH_EVERY = 200_000

#: the manifest's (and each checkpoint's) element counts, and the count
#: each column file is held to (``record_*`` files hold ``records``)
_COUNTS = ("records", "paths", "tokens", "vps", "prefixes")
_COUNT_OF = {"tokens": "tokens", "offsets": "paths", "lengths": "paths"}
#: each record id column and the count its ids index
_ID_BOUND = {"record_path": "paths", "record_vp": "vps", "record_prefix": "prefixes"}
#: elements per read when range-checking an id column on open (512 KiB:
#: an 8 MiB slice raised the spill workload's peak RSS by 12 MB)
CHECK_SLICE = 1 << 16


class SpillFormatError(ValueError):
    """Raised for a malformed, torn, or incompatible spill directory."""


def _column_path(directory: Path, name: str) -> Path:
    return directory / f"{name}.i64"


def _map_int64(path: Path) -> np.ndarray:
    """Map one column file read-only."""
    try:
        size = path.stat().st_size
    except FileNotFoundError as error:
        raise SpillFormatError(f"{path}: column file missing") from error
    if size % 8:
        raise SpillFormatError(f"{path}: size {size} is not a whole int64 column")
    if size == 0:
        return np.empty(0, dtype=np.int64)
    return np.memmap(path, dtype=np.int64, mode="r")


def _read_counts(path: Path, keys: tuple[str, ...], **header: object) -> dict:
    """A manifest or checkpoint: a JSON object holding ``header``'s
    values and an integer under every key in ``keys``."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as error:
        raise SpillFormatError(f"{path}: unreadable ({error})") from error
    if not isinstance(payload, dict):
        raise SpillFormatError(f"{path}: not a JSON object")
    if any(payload.get(key) != value for key, value in header.items()):
        raise SpillFormatError(
            f"{path}: not a {FORMAT_NAME} v{FORMAT_VERSION} spill"
        )
    for key in keys:
        if type(payload.get(key)) is not int or payload[key] < 0:
            raise SpillFormatError(f"{path}: no {key!r} count")
    return payload


def _read_manifest(base: Path) -> dict:
    """The sealed spill's manifest, checked for format and counts."""
    path = base / "manifest.json"
    if not path.exists():
        raise SpillFormatError(f"{base}: no manifest (spill not sealed)")
    return _read_counts(
        path, _COUNTS, format=FORMAT_NAME, version=FORMAT_VERSION
    )


def _side_table(path: Path, rows: int, build: Callable[[Any], Any]) -> list:
    """One JSONL side table, each row passed through ``build``; must
    hold exactly ``rows`` rows."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            table = [build(json.loads(line)) for line in handle if line.strip()]
    except FileNotFoundError as error:
        raise SpillFormatError(f"{path}: side table missing") from error
    except (ValueError, KeyError, TypeError) as error:
        raise SpillFormatError(f"{path}: malformed row ({error!r})") from error
    if len(table) != rows:
        raise SpillFormatError(f"{path}: {len(table)} rows, expected {rows}")
    return table


def _truncated_table(path: Path, rows: int, build: Callable[[Any], Any]) -> list:
    """A side table cut back to its first ``rows`` rows (a torn tail past
    the checkpoint is dropped), read through :func:`_side_table`."""
    try:
        lines = path.read_bytes().split(b"\n")[:rows]
    except FileNotFoundError as error:
        raise SpillFormatError(f"{path}: side table missing") from error
    if len(lines) < rows:
        raise SpillFormatError(f"{path}: shorter than its last checkpoint")
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    return _side_table(path, rows, build)


def _vp_row(row: dict) -> tuple[VantagePoint, str]:
    vp = VantagePoint(
        ip=row["ip"], asn=int(row["asn"]), collector=row["collector"]
    )
    return vp, row["country"]


def _prefix_row(row: dict) -> tuple[Prefix, str, int]:
    addresses = row["addresses"]
    if type(addresses) is not int or addresses < 0:
        raise ValueError(f"addresses {addresses!r} is not a count")
    return Prefix.parse(row["prefix"]), row["country"], addresses


def _vp_json(entry: tuple[VantagePoint, str]) -> dict:
    vp, country = entry
    return {"ip": vp.ip, "asn": vp.asn, "collector": vp.collector,
            "country": country}


def _prefix_json(entry: tuple[Prefix, str, int]) -> dict:
    prefix, country, addresses = entry
    return {"prefix": str(prefix), "country": country, "addresses": addresses}


def _check_paths(
    directory: Path, tokens: np.ndarray, offsets: np.ndarray, lengths: np.ndarray
) -> None:
    """The path columns must hold whole, non-empty paths back to back:
    every length at least 1, each offset the sum of the lengths before
    it, and the lengths summing to the token count. O(distinct
    paths)."""
    if len(lengths) and int(lengths.min()) < 1:
        raise SpillFormatError(
            f"{_column_path(directory, 'lengths')}: a path of length "
            f"{int(lengths.min())}"
        )
    ends = np.cumsum(lengths)
    if not np.array_equal(offsets, ends - lengths):
        raise SpillFormatError(
            f"{_column_path(directory, 'offsets')}: offsets are not the "
            "running sum of the path lengths"
        )
    total = int(ends[-1]) if len(ends) else 0
    if total != len(tokens):
        raise SpillFormatError(
            f"{_column_path(directory, 'tokens')}: {len(tokens)} tokens, "
            f"the path lengths sum to {total}"
        )


def _check_ids(path: Path, bound: int) -> None:
    """Every id in the record column at ``path`` must index its table:
    lie in ``[0, bound)``. Read from the file ``CHECK_SLICE`` ids at a
    time, so the check holds at most one slice in memory and leaves
    no mapped page behind."""
    with open(path, "rb") as handle:
        while True:
            ids = np.fromfile(handle, dtype=np.int64, count=CHECK_SLICE)
            if not len(ids):
                return
            low, high = int(ids.min()), int(ids.max())
            if low < 0 or high >= bound:
                raise SpillFormatError(
                    f"{path}: id {low if low < 0 else high} outside "
                    f"[0, {bound})"
                )


def _report_payload(report: FilterReport) -> dict:
    return {
        "total": report.total,
        "accepted": report.accepted,
        "rejected": dict(report.rejected),
    }


def _restore_report(report: FilterReport, payload: dict, path: Path) -> None:
    """Load the Table-1 counts the manifest or checkpoint at ``path``
    holds."""
    try:
        counts = payload["report"]
        report.total = int(counts["total"])
        report.accepted = int(counts["accepted"])
        for category in REJECT_CATEGORIES:
            report.rejected[category] = int(counts["rejected"].get(category, 0))
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise SpillFormatError(f"{path}: malformed report ({error!r})") from error


class SpillWriter(ColumnBuilder):
    """A :class:`~repro.perf.pathstore.ColumnBuilder` whose buffers are
    flushed to one spill directory.

    Feed it accepted rows via :meth:`extend` and :meth:`checkpoint`
    between windows, as :func:`spill_windows` does — or record by
    record via :meth:`add`, calling :meth:`maybe_checkpoint` after each
    (it flushes and persists progress every ``flush_every`` accepted
    records) — and :meth:`seal` when the input is exhausted.
    :meth:`prepare` turns a torn directory back into the state of its
    last checkpoint and reports how many *input* records the caller
    must skip.
    """

    def __init__(
        self, directory: str | Path, flush_every: int = FLUSH_EVERY
    ) -> None:
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        super().__init__()
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.flush_every = flush_every
        #: vp_table / prefix_table rows already in the side tables
        self._rows_flushed = (0, 0)
        #: tokens and paths already in the path column files (the path
        #: buffers stay in memory: they are the interning state)
        self._paths_flushed = (0, 0)

    # -- lifecycle ---------------------------------------------------------

    def sealed(self) -> bool:
        """Whether the directory already holds a complete spill."""
        return (self.directory / "manifest.json").exists()

    def prepare(self, report: FilterReport) -> int:
        """Make the directory consistent and load the builder's state.

        Returns the number of *input* records already consumed at the
        last checkpoint (0 for a fresh directory). Partial data past the
        checkpoint — including a directory that crashed before its first
        checkpoint — is truncated away; ``report`` is restored to the
        checkpointed Table-1 counts (samples are not preserved).
        """
        if self.sealed():
            raise SpillFormatError(f"{self.directory}: spill already sealed")
        checkpoint = self.directory / "progress.json"
        if not checkpoint.exists():
            for name in COLUMNS:
                _column_path(self.directory, name).write_bytes(b"")
            for stem in ("vps.jsonl", "prefixes.jsonl"):
                (self.directory / stem).write_bytes(b"")
            return 0
        progress = _read_counts(checkpoint, ("consumed",) + _COUNTS)
        _restore_report(report, progress, checkpoint)
        for name in COLUMNS:
            column = _column_path(self.directory, name)
            wanted = progress[_COUNT_OF.get(name, "records")] * 8
            if not column.exists() or column.stat().st_size < wanted:
                raise SpillFormatError(
                    f"{column}: shorter than its last checkpoint"
                )
            os.truncate(column, wanted)
        # only the path columns feed the interning state
        tokens, offsets, lengths = (
            np.fromfile(_column_path(self.directory, name), dtype=np.int64)
            for name in COLUMNS[:3]
        )
        _check_paths(self.directory, tokens, offsets, lengths)
        for buffer, column in zip(self.buffers, (tokens, offsets, lengths)):
            buffer.frombytes(column.tobytes())
        self._origin.frombytes(tokens[offsets + lengths - 1].tobytes())
        self._paths_flushed = (len(tokens), len(lengths))
        self.vp_table = _truncated_table(
            self.directory / "vps.jsonl", progress["vps"], _vp_row
        )
        self.prefix_table = _truncated_table(
            self.directory / "prefixes.jsonl", progress["prefixes"], _prefix_row
        )
        self.vp_ids = {vp.ip: vid for vid, (vp, _) in enumerate(self.vp_table)}
        self.prefix_ids = {
            prefix: fid for fid, (prefix, _, _) in enumerate(self.prefix_table)
        }
        if (
            len(self.vp_ids) != progress["vps"]
            or len(self.prefix_ids) != progress["prefixes"]
        ):
            raise SpillFormatError(
                f"{self.directory}: checkpoint counts do not match on-disk data"
            )
        self.record_count = progress["records"]
        self._rows_flushed = (len(self.vp_table), len(self.prefix_table))
        return progress["consumed"]

    # -- checkpoints -------------------------------------------------------

    def maybe_checkpoint(self, consumed: int, report: FilterReport) -> bool:
        """Checkpoint when the flush cadence is due; returns whether it did."""
        if self.record_count % self.flush_every:
            return False
        self.checkpoint(consumed, report)
        return True

    def checkpoint(self, consumed: int, report: FilterReport) -> None:
        """Flush every buffer, then atomically persist progress."""
        self._flush()
        self._write_atomic("progress.json", {
            "consumed": consumed, **self._counts(),
            "report": _report_payload(report),
        })

    def seal(self, consumed: int, report: FilterReport) -> None:
        """Final checkpoint plus the manifest that marks completion."""
        self.checkpoint(consumed, report)
        self._write_atomic("manifest.json", {
            "format": FORMAT_NAME, "version": FORMAT_VERSION,
            **self._counts(), "report": _report_payload(report),
        })

    def _counts(self) -> dict[str, int]:
        return {
            "records": self.record_count, "paths": self.path_count,
            "tokens": self.tokens_total, "vps": len(self.vp_table),
            "prefixes": len(self.prefix_table),
        }

    def _flush(self) -> None:
        # the path buffers stay (they are the interning state), so only
        # their tails since the last flush go out; record buffers empty
        tokens, paths = self._paths_flushed
        starts = (tokens, paths, paths) + (0,) * (len(COLUMNS) - 3)
        for name, buffer, start in zip(COLUMNS, self.buffers, starts):
            if len(buffer) > start:
                with open(_column_path(self.directory, name), "ab") as handle:
                    buffer[start:].tofile(handle)
        for buffer in self.buffers[3:]:
            del buffer[:]
        self._paths_flushed = (self.tokens_total, self.path_count)
        vps, prefixes = self._rows_flushed
        for stem, rows in (
            ("vps.jsonl", map(_vp_json, self.vp_table[vps:])),
            ("prefixes.jsonl", map(_prefix_json, self.prefix_table[prefixes:])),
        ):
            lines = [json.dumps(row, sort_keys=True) + "\n" for row in rows]
            if lines:
                with open(self.directory / stem, "a", encoding="utf-8") as handle:
                    handle.writelines(lines)
        self._rows_flushed = (len(self.vp_table), len(self.prefix_table))

    def _write_atomic(self, stem: str, payload: dict) -> None:
        tmp = self.directory / (stem + ".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.directory / stem)


class MmapPathStore(PathStore):
    """A sealed spill directory mapped read-only behind the PathStore
    interface.

    The flat columns are the mmap'd files themselves and the side
    tables are read (and checked) on open; the distinct-path tuple and
    the pair buckets are built lazily on first use (both are bounded by
    distinct entities, never by raw record volume).
    """

    __slots__ = ("directory", "manifest")

    def __init__(self, directory: str | Path) -> None:
        base = Path(directory)
        manifest = _read_manifest(base)
        self.directory = str(base)
        self.manifest = manifest
        for name in COLUMNS:
            path = _column_path(base, name)
            column = _map_int64(path)
            wanted = manifest[_COUNT_OF.get(name, "records")]
            if len(column) != wanted:
                raise SpillFormatError(
                    f"{path}: {len(column)} elements, manifest says {wanted}"
                )
            setattr(self, name, column)
        _check_paths(base, self.tokens, self.offsets, self.lengths)
        for name, count in _ID_BOUND.items():
            _check_ids(_column_path(base, name), manifest[count])
        self.vp_table = _side_table(base / "vps.jsonl", manifest["vps"], _vp_row)
        self.prefix_table = _side_table(
            base / "prefixes.jsonl", manifest["prefixes"], _prefix_row
        )
        self._token_list = None
        self._pair_buckets = None
        self._suffix_memo = None
        self._asn_codes = None
        self._distinct = None


def open_spill(directory: str | Path) -> PathSet:
    """Re-open a sealed spill as a lazy :class:`PathSet` (report counts
    come from the manifest; rejection samples are not persisted)."""
    store = MmapPathStore(directory)
    report = FilterReport()
    _restore_report(report, store.manifest, Path(directory) / "manifest.json")
    return PathSet(store.records, report, store)


def spill_windows(
    windows: Iterable[RecordWindow],
    *,
    clique: frozenset[int],
    is_allocated: Callable[[int], bool],
    route_servers: frozenset[int],
    vp_geo: "VPGeolocator",
    prefix_geo: "PrefixGeolocation",
    directory: str | Path,
    tracer: AnyTracer = NULL_TRACER,
) -> PathSet:
    """The Table-1 pass over record windows, spilled instead of held.

    Runs the same judge as :func:`repro.core.sanitize.sanitize_windows`
    (same span, same counters, same report) but appends each window's
    accepted rows to ``directory``, checkpointing at every window end,
    and hands back a :class:`PathSet` over the mapped columns — peak
    memory is bounded by distinct entities plus one window.

    A torn previous ingestion continues from its last checkpoint — the
    caller must pass the same deterministic window stream; its first
    ``consumed`` rows are skipped — and a sealed directory is reopened
    without reading the windows at all.
    """

    def spill(judge: Judge) -> PathSet:
        writer = SpillWriter(directory)
        if writer.sealed():
            return open_spill(directory)
        report = judge.report
        consumed = writer.prepare(report)
        for window in _skip(windows, consumed):
            rows = judge(window)
            with tracer.span("sanitize.rows", input=len(rows)) as span:
                judge.store_rows(writer, window, rows)
                consumed += len(window)
                writer.checkpoint(consumed, report)
                span.set(output=len(rows))
        writer.seal(consumed, report)
        store = MmapPathStore(directory)
        return PathSet(store.records, report, store)

    return sanitize_into(
        spill, clique, is_allocated, route_servers, vp_geo, prefix_geo, tracer
    )


def _skip(windows: Iterable[RecordWindow], count: int) -> Iterator[RecordWindow]:
    """The rows of ``windows`` after the first ``count``."""
    for window in windows:
        if count >= len(window):
            count -= len(window)
            continue
        yield window.rows(count) if count else window
        count = 0


def sanitize_to_store(
    records: Iterable[RibRecord],
    *,
    clique: frozenset[int],
    is_allocated: Callable[[int], bool],
    route_servers: frozenset[int],
    vp_geo: "VPGeolocator",
    prefix_geo: "PrefixGeolocation",
    directory: str | Path,
    tracer: AnyTracer = NULL_TRACER,
    flush_every: int = FLUSH_EVERY,
) -> PathSet:
    """:func:`repro.core.sanitize.sanitize`, spilled instead of held:
    :func:`spill_windows` over ``records`` cut into windows of
    ``flush_every`` records, so a checkpoint follows every
    ``flush_every`` input records."""
    if flush_every < 1:
        raise ValueError("flush_every must be >= 1")
    return spill_windows(
        record_windows(records, flush_every),
        clique=clique, is_allocated=is_allocated,
        route_servers=route_servers, vp_geo=vp_geo, prefix_geo=prefix_geo,
        directory=directory, tracer=tracer,
    )


def store_from_dumps(
    dump_paths: Iterable[str | Path],
    *,
    clique: frozenset[int],
    is_allocated: Callable[[int], bool],
    route_servers: frozenset[int],
    vp_geo: "VPGeolocator",
    prefix_geo: "PrefixGeolocation",
    directory: str | Path,
    window: int = 50_000,
    strict: bool = False,
    quarantine: "Quarantine | None" = None,
    tracer: AnyTracer = NULL_TRACER,
    flush_every: int = FLUSH_EVERY,
) -> PathSet:
    """Windowed MRT ingestion into a spill store.

    Streams each dump through
    :func:`repro.io.mrt.load_rib_windows` (bounded batches; lenient
    lines land in ``quarantine`` and the ``io.quarantine.*`` counters)
    and sanitizes straight into ``directory`` — no materialized
    announcement list or :class:`PathSet` at any point. Each dump is
    treated as a self-contained single-day RIB (``days_present =
    total_days = 1``), so the multi-day "unstable" filter does not
    apply to file ingestion; day merging stays upstream in
    :class:`~repro.bgp.rib.RibSeries`.
    """
    from repro.io.mrt import load_rib_windows

    def stream() -> Iterator[RibRecord]:
        for path in dump_paths:
            for batch in load_rib_windows(
                path, window=window, strict=strict,
                quarantine=quarantine, tracer=tracer,
            ):
                for announcement in batch:
                    yield RibRecord(
                        vp=announcement.vp,
                        prefix=announcement.prefix,
                        path=announcement.path,
                        days_present=1,
                        total_days=1,
                    )

    return sanitize_to_store(
        stream(),
        clique=clique, is_allocated=is_allocated,
        route_servers=route_servers, vp_geo=vp_geo, prefix_geo=prefix_geo,
        directory=directory, tracer=tracer, flush_every=flush_every,
    )
