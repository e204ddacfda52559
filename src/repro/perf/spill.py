"""Out-of-core PathStore: append-only spill files + an mmap-backed store.

The in-memory :class:`repro.perf.pathstore.PathStore` assumes the full
sanitized record list fits in RAM — fine at the catalog's ``small`` /
``default`` scale, structurally impossible for the ``large`` tier's
millions of records. This module is the spill half of the out-of-core
engine:

* :class:`SpillWriter` consumes accepted
  :class:`~repro.core.sanitize.PathRecord` objects one at a time and
  appends them to flat little-endian-native int64 column files
  (``tokens`` / ``offsets`` / ``lengths`` for the interned distinct
  paths, ``record_path`` / ``record_vp`` / ``record_prefix`` /
  ``record_origin`` per record) plus two small JSONL side tables
  (``vps.jsonl``, ``prefixes.jsonl``) holding the entities a record id
  points at. Peak writer memory is the interning dicts plus one bounded
  flush buffer — never the record set.
* :class:`MmapPathStore` maps those columns back read-only behind the
  exact :class:`~repro.perf.pathstore.PathStore` interface (it *is* a
  ``PathStore`` subclass, with the same column schema), so
  :class:`~repro.perf.index.PathIndex`, the metric kernels and every
  ranking consumer work unchanged. Records rematerialize lazily per
  access; pair/origin buckets are built in one pass over the mapped
  columns with ``array('q')`` buckets, not per-record Python lists. A
  damaged directory — a missing or short column file, an unreadable
  manifest or side table, side tables whose row counts disagree with
  the manifest — raises :class:`SpillFormatError` naming the file.
* :func:`sanitize_to_store` drives the Table-1 sanitization stream into
  a spill directory and returns a :class:`~repro.core.sanitize.PathSet`
  whose records are the lazy mmap view — the drop-in replacement for
  :func:`repro.core.sanitize.sanitize` the pipeline uses when
  ``store_backend="mmap"``.

Crash safety: every ``flush_every`` accepted records the writer flushes
its buffers and atomically rewrites ``progress.json`` (consumed input
records, per-file element counts, the Table-1 report counts). Resuming
truncates every column file back to the last checkpoint, rebuilds the
interning dicts from the on-disk data, restores the report counts
(samples are not preserved across a resume), skips the already-consumed
input records — the input stream is seed-deterministic and replayable —
and continues; the sealed result is byte-identical to an uninterrupted
ingestion. ``manifest.json`` marks a sealed, complete spill.

Determinism: ids are allocated in first-appearance order exactly like
the in-memory store's interning loop, so ``tokens`` / ``offsets`` /
``lengths`` / ``record_*`` are value-identical to the arrays
``PathStore(records)`` would build — the backend-parity tests in
``tests/perf/test_spill.py`` pin rankings, store columns, interned
suffixes and index buckets across both backends.

Like the in-memory store, the mapped arrays are derived, read-only
state (the maps are ``ACCESS_READ``; lint rule R007 covers this class
too), and the store is never pickled wholesale: it reduces to its
directory path, so worker processes re-open the maps instead of
receiving copied pages (R010's broadcast discipline).
"""

from __future__ import annotations

import json
import os
from array import array as _stdlib_array
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.bgp.announcement import RibRecord
from repro.bgp.collectors import VantagePoint
from repro.core.sanitize import (
    REJECT_CATEGORIES,
    FilterReport,
    PathRecord,
    PathSet,
    sanitize_stream,
)
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.obs.trace import NULL_TRACER, AnyTracer
from repro.perf.pathstore import PathStore, _buckets

if TYPE_CHECKING:
    from repro.geo.prefix_geo import PrefixGeolocation
    from repro.geo.vp_geo import VPGeolocator
    from repro.resilience.quarantine import Quarantine

FORMAT_NAME = "repro-spill"
FORMAT_VERSION = 1

#: int64 column files, in a fixed order (element counts per file:
#: tokens → token count; offsets/lengths → distinct paths; record_* →
#: records).
_COLUMNS = (
    "tokens", "offsets", "lengths",
    "record_path", "record_vp", "record_prefix", "record_origin",
)


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


def _read_manifest(base: Path) -> dict:
    """The sealed spill's manifest, checked for format and counts."""
    path = base / "manifest.json"
    if not path.exists():
        raise SpillFormatError(f"{base}: no manifest (spill not sealed)")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as error:
        raise SpillFormatError(f"{path}: unreadable manifest ({error})") from error
    if (
        not isinstance(manifest, dict)
        or manifest.get("format") != FORMAT_NAME
        or manifest.get("version") != FORMAT_VERSION
    ):
        raise SpillFormatError(f"{base}: not a {FORMAT_NAME} v{FORMAT_VERSION} spill")
    for key in ("records", "paths", "tokens", "vps", "prefixes"):
        if type(manifest.get(key)) is not int:
            raise SpillFormatError(f"{path}: no integer {key!r} count")
    return manifest


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
        raise SpillFormatError(f"{path}: {len(table)} rows, manifest says {rows}")
    return table


def _read_jsonl(path: Path) -> list[dict]:
    rows: list[dict] = []
    if not path.exists():
        return rows
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def _report_payload(report: FilterReport) -> dict:
    return {
        "total": report.total,
        "accepted": report.accepted,
        "rejected": dict(report.rejected),
    }


def _restore_report(report: FilterReport, payload: dict) -> None:
    report.total = int(payload["total"])
    report.accepted = int(payload["accepted"])
    for category in REJECT_CATEGORIES:
        report.rejected[category] = int(payload["rejected"].get(category, 0))


class SpillWriter:
    """Append-only writer for one spill directory.

    Feed it accepted records via :meth:`add`; call
    :meth:`maybe_checkpoint` after each (it flushes and persists
    progress every ``flush_every`` accepted records) and :meth:`seal`
    when the input is exhausted. :meth:`prepare` turns a torn directory
    back into the state of its last checkpoint and reports how many
    *input* records the caller must skip.
    """

    def __init__(self, directory: str | Path, flush_every: int = 200_000) -> None:
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.flush_every = flush_every
        self.path_ids: dict[ASPath, int] = {}
        self._vp_ids: dict[str, int] = {}
        self._prefix_ids: dict[Prefix, int] = {}
        self.accepted = 0
        self.tokens_total = 0
        self._buffers: dict[str, _stdlib_array] = {
            name: _stdlib_array("q") for name in _COLUMNS
        }
        self._vp_lines: list[str] = []
        self._prefix_lines: list[str] = []

    # -- lifecycle ---------------------------------------------------------

    def sealed(self) -> bool:
        """Whether the directory already holds a complete spill."""
        return (self.directory / "manifest.json").exists()

    def prepare(self, report: FilterReport) -> int:
        """Make the directory consistent and load writer state.

        Returns the number of *input* records already consumed at the
        last checkpoint (0 for a fresh directory). Partial data past the
        checkpoint — including a directory that crashed before its first
        checkpoint — is truncated away; ``report`` is restored to the
        checkpointed Table-1 counts (samples are not preserved).
        """
        if self.sealed():
            raise SpillFormatError(f"{self.directory}: spill already sealed")
        progress_path = self.directory / "progress.json"
        if not progress_path.exists():
            self._reset_files()
            return 0
        progress = json.loads(progress_path.read_text(encoding="utf-8"))
        paths = int(progress["paths"])
        records = int(progress["records"])
        tokens = int(progress["tokens"])
        vps = int(progress["vps"])
        prefixes = int(progress["prefixes"])
        counts = {
            "tokens": tokens, "offsets": paths, "lengths": paths,
            "record_path": records, "record_vp": records,
            "record_prefix": records, "record_origin": records,
        }
        for name in _COLUMNS:
            path = _column_path(self.directory, name)
            wanted = counts[name] * 8
            if not path.exists() or path.stat().st_size < wanted:
                raise SpillFormatError(
                    f"{path}: shorter than its last checkpoint"
                )
            os.truncate(path, wanted)
        self._truncate_jsonl(self.directory / "vps.jsonl", vps)
        self._truncate_jsonl(self.directory / "prefixes.jsonl", prefixes)
        self._load_interning()
        if (
            len(self.path_ids) != paths
            or len(self._vp_ids) != vps
            or len(self._prefix_ids) != prefixes
            or self.tokens_total != tokens
        ):
            raise SpillFormatError(
                f"{self.directory}: checkpoint counts do not match on-disk data"
            )
        self.accepted = records
        _restore_report(report, progress["report"])
        return int(progress["consumed"])

    def _reset_files(self) -> None:
        for name in _COLUMNS:
            _column_path(self.directory, name).write_bytes(b"")
        for stem in ("vps.jsonl", "prefixes.jsonl"):
            (self.directory / stem).write_text("", encoding="utf-8")

    def _truncate_jsonl(self, path: Path, keep: int) -> None:
        rows = _read_jsonl(path)[:keep]
        if len(rows) < keep:
            raise SpillFormatError(f"{path}: shorter than its last checkpoint")
        with open(path, "w", encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(row, sort_keys=True) + "\n")

    def _load_interning(self) -> None:
        """Rebuild the interning dicts from the (truncated) on-disk data."""
        tokens = _stdlib_array("q")
        offsets = _stdlib_array("q")
        lengths = _stdlib_array("q")
        for column, name in ((tokens, "tokens"), (offsets, "offsets"),
                             (lengths, "lengths")):
            data = _column_path(self.directory, name).read_bytes()
            column.frombytes(data)
        self.path_ids = {}
        for pid in range(len(offsets)):
            offset = offsets[pid]
            asns = tuple(tokens[offset:offset + lengths[pid]])
            self.path_ids[ASPath.trusted(asns)] = pid
        self.tokens_total = len(tokens)
        self._vp_ids = {
            row["ip"]: vid
            for vid, row in enumerate(_read_jsonl(self.directory / "vps.jsonl"))
        }
        self._prefix_ids = {
            Prefix.parse(row["prefix"]): fid
            for fid, row in enumerate(
                _read_jsonl(self.directory / "prefixes.jsonl")
            )
        }

    # -- ingestion ---------------------------------------------------------

    def add(self, record: PathRecord) -> None:
        """Append one accepted record (same interning order as
        ``PathStore(records)``)."""
        buffers = self._buffers
        path = record.path
        pid = self.path_ids.get(path)
        if pid is None:
            pid = self.path_ids[path] = len(self.path_ids)
            asns = path.asns
            buffers["offsets"].append(self.tokens_total)
            buffers["lengths"].append(len(asns))
            buffers["tokens"].extend(asns)
            self.tokens_total += len(asns)
        vp = record.vp
        vid = self._vp_ids.get(vp.ip)
        if vid is None:
            vid = self._vp_ids[vp.ip] = len(self._vp_ids)
            self._vp_lines.append(json.dumps({
                "ip": vp.ip, "asn": vp.asn, "collector": vp.collector,
                "country": record.vp_country,
            }, sort_keys=True))
        fid = self._prefix_ids.get(record.prefix)
        if fid is None:
            fid = self._prefix_ids[record.prefix] = len(self._prefix_ids)
            self._prefix_lines.append(json.dumps({
                "prefix": str(record.prefix),
                "country": record.prefix_country,
                "addresses": record.addresses,
            }, sort_keys=True))
        buffers["record_path"].append(pid)
        buffers["record_vp"].append(vid)
        buffers["record_prefix"].append(fid)
        buffers["record_origin"].append(path.asns[-1])
        self.accepted += 1

    def maybe_checkpoint(self, consumed: int, report: FilterReport) -> bool:
        """Checkpoint when the flush cadence is due; returns whether it did."""
        if self.accepted % self.flush_every:
            return False
        self.checkpoint(consumed, report)
        return True

    def checkpoint(self, consumed: int, report: FilterReport) -> None:
        """Flush every buffer, then atomically persist progress."""
        self._flush()
        progress = {
            "consumed": consumed,
            "records": self.accepted,
            "paths": len(self.path_ids),
            "tokens": self.tokens_total,
            "vps": len(self._vp_ids),
            "prefixes": len(self._prefix_ids),
            "report": _report_payload(report),
        }
        self._write_atomic("progress.json", progress)

    def seal(self, consumed: int, report: FilterReport) -> None:
        """Final checkpoint plus the manifest that marks completion."""
        self.checkpoint(consumed, report)
        manifest = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "records": self.accepted,
            "paths": len(self.path_ids),
            "tokens": self.tokens_total,
            "vps": len(self._vp_ids),
            "prefixes": len(self._prefix_ids),
            "report": _report_payload(report),
        }
        self._write_atomic("manifest.json", manifest)

    def _flush(self) -> None:
        for name in _COLUMNS:
            buffer = self._buffers[name]
            if len(buffer):
                with open(_column_path(self.directory, name), "ab") as handle:
                    handle.write(buffer.tobytes())
                del buffer[:]
        for stem, lines in (("vps.jsonl", self._vp_lines),
                            ("prefixes.jsonl", self._prefix_lines)):
            if lines:
                with open(self.directory / stem, "a", encoding="utf-8") as handle:
                    handle.write("\n".join(lines) + "\n")
                lines.clear()

    def _write_atomic(self, stem: str, payload: dict) -> None:
        tmp = self.directory / (stem + ".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.directory / stem)


class _LazyRecords(Sequence):
    """Read-only record sequence rematerialized per access from the
    mapped columns (entities shared: one VantagePoint / Prefix / ASPath
    object per distinct id, so equal positions yield equal records)."""

    __slots__ = ("_store",)

    def __init__(self, store: "MmapPathStore") -> None:
        self._store = store

    def __len__(self) -> int:
        return self._store.record_count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        store = self._store
        count = store.record_count
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("record position out of range")
        vp, vp_country = store.vp_table[store.record_vp[index]]
        prefix, prefix_country, addresses = store.prefix_table[
            store.record_prefix[index]
        ]
        return PathRecord(
            vp=vp,
            vp_country=vp_country,
            prefix=prefix,
            prefix_country=prefix_country,
            path=store.paths[store.record_path[index]],
            addresses=addresses,
        )


class _AddressColumn(Sequence):
    """Per-record address counts resolved through the prefix side table
    (IPv6 counts exceed int64, so they never enter a flat column)."""

    __slots__ = ("_store",)

    def __init__(self, store: "MmapPathStore") -> None:
        self._store = store

    def __len__(self) -> int:
        return self._store.record_count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        store = self._store
        count = store.record_count
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("record position out of range")
        return store.prefix_table[store.record_prefix[index]][2]


class MmapPathStore(PathStore):
    """A sealed spill directory mapped read-only behind the PathStore
    interface.

    The flat columns are the mmap'd files themselves and the side
    tables are read (and checked) on open; the distinct-path tuple, the
    record sequence, and the pair/origin buckets are built lazily on
    first use (paths and buckets are bounded by distinct entities,
    never by raw record volume). Pickling reduces to the directory
    path, so a worker re-opens the maps instead of receiving copied
    array pages.
    """

    __slots__ = ("directory", "manifest", "_origin_memo")

    def __init__(self, directory: str | Path) -> None:
        base = Path(directory)
        manifest = _read_manifest(base)
        self.directory = str(base)
        self.manifest = manifest
        counts = {
            "tokens": manifest["tokens"], "offsets": manifest["paths"],
            "lengths": manifest["paths"],
        }
        for name in _COLUMNS:
            path = _column_path(base, name)
            column = _map_int64(path)
            wanted = counts.get(name, manifest["records"])
            if len(column) != wanted:
                raise SpillFormatError(
                    f"{path}: {len(column)} elements, manifest says {wanted}"
                )
            setattr(self, name, column)
        self.vp_table = _side_table(
            base / "vps.jsonl", manifest["vps"],
            lambda row: (
                VantagePoint(
                    ip=row["ip"], asn=int(row["asn"]),
                    collector=row["collector"],
                ),
                row["country"],
            ),
        )
        self.prefix_table = _side_table(
            base / "prefixes.jsonl", manifest["prefixes"],
            lambda row: (
                Prefix.parse(row["prefix"]), row["country"], row["addresses"],
            ),
        )
        self._token_list = None
        self._pair_buckets = None
        self._suffix_memo = None
        self._distinct = None
        self._origin_memo: dict[int, _stdlib_array] | None = None

    def __reduce__(self):
        # never ship mapped pages through a pickle: workers re-open
        return (type(self), (self.directory,))

    # -- lazily rebuilt PathStore surface ----------------------------------

    def __getattr__(self, name: str):
        # slots declared by PathStore but filled lazily here; __getattr__
        # only fires while the slot is still unset
        if name == "paths":
            token_list = self.token_list()
            paths = tuple(
                ASPath.trusted(tuple(
                    token_list[self.offsets[pid]:
                               self.offsets[pid] + self.lengths[pid]]
                ))
                for pid in range(len(self.offsets))
            )
            self.paths = paths
            return paths
        if name == "path_ids":
            ids = {path: pid for pid, path in enumerate(self.paths)}
            self.path_ids = ids
            return ids
        if name == "records":
            lazy = _LazyRecords(self)
            self.records = lazy  # type: ignore[assignment]
            return lazy
        if name == "record_addresses":
            column = _AddressColumn(self)
            self.record_addresses = column  # type: ignore[assignment]
            return column
        if name == "record_weight":
            # float() per prefix, then one gather through the prefix ids
            prefix_weight = np.asarray(
                [float(addresses) for _, _, addresses in self.prefix_table],
                dtype=np.float64,
            )
            weights = prefix_weight[self.record_prefix]
            self.record_weight = weights
            return weights
        raise AttributeError(name)

    # -- grouping (passes over the mapped columns) ------------------------

    def origin_buckets(self):
        """Origin → ascending positions, as ``array('q')`` buckets
        (memoised: unlike the in-memory store, rebuilding is a full
        column pass)."""
        if self._origin_memo is None:
            groups = _buckets(self.record_origin)
            groups.sort(key=lambda item: item[0][0])
            self._origin_memo = {origin: bucket for bucket, origin in groups}
        return self._origin_memo


def open_spill(directory: str | Path) -> PathSet:
    """Re-open a sealed spill as a lazy :class:`PathSet` (report counts
    come from the manifest; rejection samples are not persisted)."""
    store = MmapPathStore(directory)
    report = FilterReport()
    _restore_report(report, store.manifest["report"])
    path_set = PathSet(records=store.records, report=report)
    path_set._store = store
    return path_set


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
    flush_every: int = 200_000,
    resume: bool = True,
) -> PathSet:
    """:func:`repro.core.sanitize.sanitize`, spilled instead of held.

    Runs the identical Table-1 stream (same span, same counters, same
    report) but appends each accepted record to ``directory`` and hands
    back a :class:`PathSet` over the mapped columns, so peak memory is
    bounded by distinct entities + one flush buffer.

    ``resume=True`` (default) continues a torn previous ingestion from
    its last checkpoint — the caller must pass the same deterministic
    input stream — and returns the already-sealed result immediately
    when the directory is complete.
    """
    with tracer.span("sanitize") as span:
        report = FilterReport()
        writer = SpillWriter(directory, flush_every=flush_every)
        if resume and writer.sealed():
            path_set = open_spill(directory)
            report = path_set.report
        else:
            consumed = writer.prepare(report) if resume else 0
            if not resume:
                writer._reset_files()
            source = islice(records, consumed, None) if consumed else records
            pulled = consumed

            def counted() -> Iterator[RibRecord]:
                nonlocal pulled
                for record in source:
                    pulled += 1
                    yield record

            for accepted in sanitize_stream(
                counted(), clique, is_allocated, route_servers,
                vp_geo, prefix_geo, report,
            ):
                writer.add(accepted)
                writer.maybe_checkpoint(pulled, report)
            writer.seal(pulled, report)
            store = MmapPathStore(directory)
            path_set = PathSet(records=store.records, report=report)
            path_set._store = store
        span.set(
            input=report.total, output=report.accepted,
            records=len(path_set.records),
        )
        metrics = tracer.metrics
        metrics.counter("sanitize.input").inc(report.total)
        metrics.counter("sanitize.accepted").inc(report.accepted)
        for category in REJECT_CATEGORIES:
            metrics.counter(f"sanitize.dropped.{category}").inc(
                report.rejected[category]
            )
    return path_set


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
    flush_every: int = 200_000,
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
