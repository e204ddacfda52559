"""MRT-style RIB serialization.

Real pipelines ingest RouteViews/RIS ``TABLE_DUMP_V2`` MRT files; our
substrate produces :class:`~repro.bgp.announcement.Announcement`
streams. This module serialises a day's RIB into a compact gzip'd
JSON-lines format patterned after a parsed MRT dump (one RIB entry per
line: peer IP, peer ASN, prefix, AS path) and parses it back, so
downstream tooling — including the public-dataset release and any
external consumer — can work from files instead of a live simulator.

The format is intentionally self-describing and versioned:

    {"type": "header", "format": "repro-mrt", "version": 1,
     "day": 0, "collector_count": 3}
    {"type": "rib", "peer_ip": "…", "peer_asn": 13, "collector": "…",
     "prefix": "10.0.0.0/16", "path": [13, 10, 1]}

Failure behavior: every malformed-input condition — a truncated or
corrupt gzip stream, an invalid JSON line (nesting past the recursion
limit and over-long integer literals included), a header without a
non-negative integer ``day``, a rib entry with missing or mistyped
fields, an unparseable ``peer_ip`` or an ASN outside 0..2**32-1 —
surfaces as :class:`MrtFormatError` carrying the file path and line
number (never a raw ``EOFError``, ``json.JSONDecodeError``,
``RecursionError`` or ``OverflowError``). With ``strict=False``,
malformed *lines* are diverted to a :class:`repro.resilience.Quarantine`
sink and ingestion continues; only damage that makes the rest of the
file untrustworthy (bad header, corrupt stream) still aborts.
"""

from __future__ import annotations

import gzip
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.bgp.announcement import Announcement
from repro.bgp.collectors import VantagePoint
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix, parse_address
from repro.obs.trace import NULL_TRACER, AnyTracer
from repro.resilience.quarantine import Quarantine

if TYPE_CHECKING:  # corruption injection is optional, type-only here
    from repro.resilience.faults import FaultPlan

FORMAT_NAME = "repro-mrt"
FORMAT_VERSION = 1

#: exceptions that mean "this line is not a well-formed rib entry"
_ENTRY_ERRORS = (KeyError, TypeError, ValueError, AttributeError, OverflowError)

#: the largest 32-bit AS number
_ASN_MAX = 4294967295

#: exceptions a corrupt/truncated gzip stream surfaces while reading
_STREAM_ERRORS = (EOFError, OSError, UnicodeDecodeError)


class MrtFormatError(ValueError):
    """Raised for malformed or incompatible dump files."""


@dataclass(frozen=True, slots=True)
class MrtHeader:
    """Dump metadata from the header line."""

    day: int
    entry_count: int | None = None


def dump_rib(
    announcements: Iterable[Announcement],
    path: str | Path,
    day: int = 0,
) -> Path:
    """Write one day's announcements as a gzip'd MRT-style dump."""
    path = Path(path)
    count = 0
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        handle.write(json.dumps({
            "type": "header",
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "day": day,
        }) + "\n")
        for announcement in announcements:
            handle.write(json.dumps({
                "type": "rib",
                "peer_ip": announcement.vp.ip,
                "peer_asn": announcement.vp.asn,
                "collector": announcement.vp.collector,
                "prefix": str(announcement.prefix),
                "path": list(announcement.path.asns),
            }) + "\n")
            count += 1
        handle.write(json.dumps({"type": "trailer", "entries": count}) + "\n")
    return path


def read_header(path: str | Path) -> MrtHeader:
    """Read and validate only the dump header."""
    try:
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            line = handle.readline()
            if not line:
                raise MrtFormatError(f"{path}:1: empty dump")
            first = _decode(line)
    except _STREAM_ERRORS as error:
        raise MrtFormatError(f"{path}:1: corrupt gzip stream: {error}") from error
    except json.JSONDecodeError as error:
        raise MrtFormatError(f"{path}:1: invalid header JSON: {error.msg}") from error
    _validate_header(first, path)
    return MrtHeader(day=first["day"])


def _decode(line: str) -> object:
    """One JSON line. Anything ``json.loads`` cannot decode — nesting
    past the recursion limit and integer literals past the digit limit
    included — raises ``json.JSONDecodeError``."""
    try:
        return json.loads(line)
    except json.JSONDecodeError:
        raise
    except (ValueError, RecursionError) as error:
        raise json.JSONDecodeError(str(error), line, 0) from error


def _asn(value: object) -> int:
    """An AS number: a JSON integer within 0..2**32-1."""
    if type(value) is not int or not 0 <= value <= _ASN_MAX:
        raise ValueError(f"invalid ASN {value!r}")
    return value


def _parse_rib_entry(entry: dict) -> Announcement:
    """One rib line's announcement (raises on missing/mistyped fields)."""
    ip = entry["peer_ip"]
    parse_address(ip)
    collector = entry.get("collector", "unknown")
    if not isinstance(collector, str):
        raise TypeError(f"collector is not a string: {collector!r}")
    path = entry["path"]
    if not isinstance(path, list):
        raise TypeError(f"path is not a list: {path!r}")
    return Announcement(
        vp=VantagePoint(ip=ip, asn=_asn(entry["peer_asn"]), collector=collector),
        prefix=Prefix.parse(entry["prefix"]),
        path=ASPath(tuple(_asn(asn) for asn in path)),
    )


def load_rib(
    path: str | Path,
    strict: bool = True,
    quarantine: Quarantine | None = None,
    faults: "FaultPlan | None" = None,
    tracer: "AnyTracer" = NULL_TRACER,
) -> Iterator[Announcement]:
    """Stream announcements back out of a dump, verifying the trailer.

    ``strict=True`` (default) fails fast: any malformed input raises
    :class:`MrtFormatError` with the file path and line number.
    ``strict=False`` diverts malformed lines into ``quarantine`` (a
    fresh sink is used when none is passed) and keeps going; the
    trailer count is then reconciled against parsed + quarantined
    lines, so deterministic corruption yields deterministic counts.

    ``faults`` (a :class:`repro.resilience.FaultPlan` with a
    ``corrupt_rate``) deterministically mangles lines after the read —
    the hook the fault-injection suite uses to exercise this path.

    ``tracer`` mirrors every quarantined line into an
    ``io.quarantine.<reason>`` counter as it happens, so lenient-mode
    drop counts surface in the obs stage report instead of vanishing
    inside the sink.
    """
    path = Path(path)
    sink = quarantine if quarantine is not None else Quarantine()
    source = str(path)
    metrics = tracer.metrics
    count = 0
    skipped = 0
    line_no = 0
    saw_trailer = False

    def divert(reason: str, detail: str, raw: str = "") -> None:
        sink.add(source, line_no, reason, detail, raw)
        metrics.counter(f"io.quarantine.{reason}").inc()

    with gzip.open(path, "rt", encoding="utf-8") as handle:
        while True:
            line_no += 1
            try:
                line = handle.readline()
            except _STREAM_ERRORS as error:
                if strict:
                    raise MrtFormatError(
                        f"{path}:{line_no}: corrupt gzip stream: {error}"
                    ) from error
                divert("corrupt-stream", str(error))
                return
            if not line:
                break
            if faults is not None and faults.corrupts_line(line_no):
                line = faults.corrupt(line)
            if line_no == 1:
                try:
                    header = _decode(line)
                except json.JSONDecodeError as error:
                    # a broken header means nothing else in the file
                    # can be trusted: fatal even when lenient
                    raise MrtFormatError(
                        f"{path}:1: invalid header JSON: {error.msg}"
                    ) from error
                _validate_header(header, path)
                continue
            try:
                entry = _decode(line)
            except json.JSONDecodeError as error:
                if strict:
                    raise MrtFormatError(
                        f"{path}:{line_no}: invalid JSON: {error.msg}"
                    ) from error
                divert("invalid-json", error.msg, line)
                skipped += 1
                continue
            kind = entry.get("type") if isinstance(entry, dict) else None
            if kind == "trailer":
                saw_trailer = True
                declared = entry.get("entries")
                expected = count if strict else count + skipped
                if declared != expected:
                    if strict:
                        raise MrtFormatError(
                            f"{path}:{line_no}: trailer count {declared} != "
                            f"{count} entries"
                        )
                    divert(
                        "trailer-mismatch",
                        f"declared {declared}, parsed {count}, "
                        f"quarantined {skipped}", line,
                    )
                continue
            if kind != "rib" or saw_trailer:
                reason = (
                    "rib entry after trailer" if saw_trailer
                    else f"unexpected entry type {kind!r}"
                )
                if strict:
                    raise MrtFormatError(f"{path}:{line_no}: {reason}")
                divert("bad-entry", reason, line)
                skipped += 1
                continue
            try:
                announcement = _parse_rib_entry(entry)
            except _ENTRY_ERRORS as error:
                if strict:
                    raise MrtFormatError(
                        f"{path}:{line_no}: malformed rib entry: {error!r}"
                    ) from error
                divert("bad-entry", repr(error), line)
                skipped += 1
                continue
            count += 1
            yield announcement
    if not saw_trailer:
        if strict:
            raise MrtFormatError(f"{path}:{line_no}: truncated dump (no trailer)")
        divert("missing-trailer", f"{count} entries read")


def dump_series(series, directory: str | Path, stem: str = "rib") -> list[Path]:
    """Write every day of a :class:`~repro.bgp.rib.RibSeries` to a
    directory (``rib.day0.jsonl.gz`` …), one lazily-streamed day at a
    time (:meth:`~repro.bgp.rib.RibSeries.days`)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for dump in series.days():
        path = directory / f"{stem}.day{dump.day}.jsonl.gz"
        dump_rib(dump, path, dump.day)
        written.append(path)
    return written


def _validate_header(header: object, path: str | Path) -> None:
    if not isinstance(header, dict):
        raise MrtFormatError(f"{path}:1: not a {FORMAT_NAME} dump: {header!r}")
    if header.get("type") != "header" or header.get("format") != FORMAT_NAME:
        raise MrtFormatError(f"{path}:1: not a {FORMAT_NAME} dump: {header}")
    if header.get("version") != FORMAT_VERSION:
        raise MrtFormatError(
            f"{path}:1: unsupported {FORMAT_NAME} version {header.get('version')}"
        )
    day = header.get("day")
    if type(day) is not int or day < 0:
        raise MrtFormatError(f"{path}:1: header day is not an integer >= 0: {day!r}")
