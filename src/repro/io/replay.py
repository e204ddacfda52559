"""Recomputing rankings from a released dataset.

The paper's reproducibility promise is that third parties can rebuild
the rankings from the shared artifacts. This module delivers exactly
that: given the ``paths.jsonl`` a release bundle contains (sanitized
observations with VP/prefix countries and owned address counts), it
reconstructs a :class:`~repro.core.sanitize.PathSet` and recomputes any
metric — hegemony exactly (it needs only the paths), cones via
relationships *inferred from the released paths themselves*, since the
release carries no ground-truth relationship labels.

:class:`ReplaySession` is the pipeline's ranking session
(:class:`~repro.core.session.RankingSession`, the class
:class:`~repro.core.pipeline.PipelineResult` extends) over the loaded
path set: the same request check, path index, view and ranking memos and
:meth:`~repro.core.registry.MetricSpec.rank`, plus the inferred oracle,
the gate on ``spec.replayable`` and the release's destination countries
as the valid ones. A released file is outside input:
:func:`load_pathset_jsonl` holds every field to its type and range and
raises :class:`ReplayError` naming the line.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bgp.collectors import VantagePoint
from repro.core.registry import MetricSpec
from repro.core.sanitize import FilterReport, PathRecord, PathSet, RelationshipOracle
from repro.core.session import RankingSession
from repro.net.asn import MAX_ASN
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix, parse_address
from repro.perf.pathstore import PathStore
from repro.relationships.inference import infer_relationships


class ReplayError(ValueError):
    """Raised for an unreadable or malformed released path file; the
    message names the file and, for a bad line, its number."""


_REQUIRED_FIELDS = (
    "vp_ip", "vp_asn", "vp_country", "prefix", "prefix_country",
    "addresses", "path",
)


def load_pathset_jsonl(path: str | Path) -> PathSet:
    """Rebuild a PathSet, over its store, from a released
    ``paths.jsonl``.

    The file is outside input, so every field is held to its type and
    range as it is read: integers that are not bools, ASNs within
    ``0..MAX_ASN``, a non-empty list for the path, a parseable prefix
    and VP address, an address count from 0 to the size of its
    family's address space, and strings for the countries and the
    collector. A store keeps one row per prefix and per VP IP, so a
    file in which a prefix reappears with another country or address
    count, or a VP IP with another ASN, collector or country, cannot be
    ranked faithfully either. Any of these raises :class:`ReplayError`
    naming ``file:line``; a file that cannot be read raises it naming
    the file.
    """
    records: list[PathRecord] = []
    prefixes: dict[Prefix, tuple[str, int]] = {}
    vps: dict[str, tuple[VantagePoint, str]] = {}
    try:
        handle = Path(path).open("rb")
    except OSError as error:
        raise ReplayError(
            f"{path}: cannot read ({error.strerror or error})"
        ) from None
    with handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except ValueError:  # JSON syntax, encoding or number size
                raise ReplayError(f"{path}:{line_number}: bad JSON") from None
            try:
                record = _record(entry)
            except ValueError as error:
                raise ReplayError(f"{path}:{line_number}: {error}") from None
            prefix_row = (record.prefix_country, record.addresses)
            if prefixes.setdefault(record.prefix, prefix_row) != prefix_row:
                raise ReplayError(
                    f"{path}:{line_number}: prefix {record.prefix} reappears "
                    f"with another country or address count"
                )
            vp_row = (record.vp, record.vp_country)
            if vps.setdefault(record.vp.ip, vp_row) != vp_row:
                raise ReplayError(
                    f"{path}:{line_number}: VP {record.vp.ip} reappears with "
                    f"another ASN, collector or country"
                )
            records.append(record)
    store = PathStore(records)
    return PathSet(store.records, FilterReport(), store)


def _record(entry: object) -> PathRecord:
    """One released line as a record; ``ValueError`` for a missing,
    mistyped or out-of-range field."""
    if not isinstance(entry, dict):
        raise ValueError("not a JSON object")
    missing = [f for f in _REQUIRED_FIELDS if f not in entry]
    if missing:
        raise ValueError(f"missing fields {missing}")
    asns = entry["path"]
    if not isinstance(asns, list) or not asns:
        raise ValueError(f"path must be a non-empty list, got {asns!r:.40}")
    prefix = Prefix.parse(_text(entry["prefix"], "prefix"))
    vp_ip = _text(entry["vp_ip"], "vp_ip")
    parse_address(vp_ip)
    return PathRecord(
        vp=VantagePoint(
            ip=vp_ip,
            asn=_integer(entry["vp_asn"], "vp_asn", MAX_ASN),
            collector=_text(entry.get("collector", "released"), "collector"),
        ),
        vp_country=_text(entry["vp_country"], "vp_country"),
        prefix=prefix,
        prefix_country=_text(entry["prefix_country"], "prefix_country"),
        path=ASPath(tuple(_integer(asn, "path ASN", MAX_ASN) for asn in asns)),
        addresses=_integer(entry["addresses"], "addresses", 1 << prefix.bits()),
    )


def _text(value: object, field: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{field} must be a string, got {value!r:.40}")
    return value


def _integer(value: object, field: str, top: int) -> int:
    if type(value) is not int or not 0 <= value <= top:
        raise ValueError(
            f"{field} must be an integer in 0..{top}, got {value!r:.40}"
        )
    return value


class ReplaySession(RankingSession):
    """Recompute views and rankings from released paths only: a
    :class:`~repro.core.session.RankingSession` over the released path
    set, whose relationship oracle is inferred from the paths on first
    use, that ranks only the registry's replayable metrics."""

    @classmethod
    def from_file(cls, path: str | Path, trim: float = 0.1) -> "ReplaySession":
        """Open a released ``paths.jsonl`` (named in the message for a
        country it does not hold)."""
        return cls(load_pathset_jsonl(path), trim=trim, source=str(path))

    @property
    def oracle(self) -> RelationshipOracle:
        """The relationship oracle: supplied, or inferred on first use."""
        if self._oracle is None:
            self._oracle = infer_relationships(
                self.paths.store().record_paths()
            )
        return self._oracle

    @classmethod
    def gate(cls, spec: MetricSpec) -> MetricSpec:
        """The replay gate: ``spec.replayable`` (AHC needs registration
        countries the release does not carry; CTI is pinned
        non-replayable). Specs that read no oracle (the AH family)
        never trigger relationship inference — they are exact from the
        paths alone."""
        if not spec.replayable:
            raise ValueError(
                f"metric {spec.name} cannot be replayed from released paths"
            )
        return spec
