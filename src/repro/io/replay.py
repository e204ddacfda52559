"""Recomputing rankings from a released dataset.

The paper's reproducibility promise is that third parties can rebuild
the rankings from the shared artifacts. This module delivers exactly
that: given the ``paths.jsonl`` a release bundle contains (sanitized
observations with VP/prefix countries and owned address counts), it
reconstructs a :class:`~repro.core.sanitize.PathSet` and recomputes any
metric — hegemony exactly (it needs only the paths), cones via
relationships *inferred from the released paths themselves*, since the
release carries no ground-truth relationship labels.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bgp.collectors import VantagePoint
from repro.core.ranking import Ranking
from repro.core.registry import MetricContext, get_spec, normalize_country
from repro.core.sanitize import FilterReport, PathRecord, PathSet, RelationshipOracle
from repro.core.views import View
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.perf.index import PathIndex
from repro.perf.pathstore import PathStore
from repro.relationships.inference import InferredRelationships, infer_relationships


class ReplayError(ValueError):
    """Raised for malformed released path files."""

_REQUIRED_FIELDS = (
    "vp_ip", "vp_asn", "vp_country", "prefix", "prefix_country",
    "addresses", "path",
)


def load_pathset_jsonl(path: str | Path) -> PathSet:
    """Rebuild a PathSet, over its store, from a released
    ``paths.jsonl``.

    A store keeps one row per prefix and per VP IP, so a file in which
    a prefix reappears with another country or address count, or a VP
    IP with another ASN, collector or country, cannot be ranked
    faithfully: it raises :class:`ReplayError` naming the line.
    """
    records: list[PathRecord] = []
    prefixes: dict[Prefix, tuple[str, int]] = {}
    vps: dict[str, tuple[VantagePoint, str]] = {}
    with Path(path).open() as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ReplayError(f"{path}:{line_number}: bad JSON") from exc
            missing = [f for f in _REQUIRED_FIELDS if f not in entry]
            if missing:
                raise ReplayError(
                    f"{path}:{line_number}: missing fields {missing}"
                )
            record = PathRecord(
                vp=VantagePoint(
                    ip=entry["vp_ip"],
                    asn=int(entry["vp_asn"]),
                    collector=entry.get("collector", "released"),
                ),
                vp_country=entry["vp_country"],
                prefix=Prefix.parse(entry["prefix"]),
                prefix_country=entry["prefix_country"],
                path=ASPath(tuple(int(asn) for asn in entry["path"])),
                addresses=int(entry["addresses"]),
            )
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


class ReplaySession:
    """Recompute views and rankings from released paths only."""

    def __init__(
        self,
        paths: PathSet,
        oracle: RelationshipOracle | None = None,
        trim: float = 0.1,
    ) -> None:
        self.paths = paths
        self.trim = trim
        self._inferred: InferredRelationships | None = None
        self._oracle = oracle
        self._index: PathIndex | None = None
        self._views: dict[tuple[str, str | None], View] = {}
        self._rankings: dict[tuple[str, str | None], Ranking] = {}

    @classmethod
    def from_file(cls, path: str | Path, trim: float = 0.1) -> "ReplaySession":
        """Open a released ``paths.jsonl``."""
        return cls(load_pathset_jsonl(path), trim=trim)

    @property
    def oracle(self) -> RelationshipOracle:
        """The relationship oracle: supplied, or inferred on first use."""
        if self._oracle is None:
            if self._inferred is None:
                self._inferred = infer_relationships(
                    self.paths.store().record_paths()
                )
            return self._inferred
        return self._oracle

    def view(self, kind: str, country: str | None = None) -> View:
        """Same view vocabulary as the pipeline, built the same way:
        bucket lookups in a :class:`~repro.perf.index.PathIndex` over
        the released paths' store."""
        country = normalize_country(country)
        key = (kind, country)
        if key not in self._views:
            if self._index is None:
                self._index = PathIndex.from_paths(self.paths)
            self._views[key] = self._index.view(
                kind, None if kind == "global" else country
            )
        return self._views[key]

    def ranking(self, metric: str, country: str | None = None) -> Ranking:
        """Recompute one metric from the released paths.

        Which metrics replay, which view each consumes, and how it is
        computed all come from the registry
        (:mod:`repro.core.registry`): ``spec.replayable`` gates the
        request (AHC needs registration countries the release does not
        carry; CTI is pinned non-replayable), and specs with
        ``needs_oracle=False`` (the AH family) never trigger
        relationship inference — they are exact from the paths alone.
        CC metrics use inferred relationships unless an oracle was
        supplied.
        """
        spec = get_spec(metric)
        if not spec.replayable:
            raise ValueError(
                f"metric {spec.name!r} cannot be replayed from released paths"
            )
        country = normalize_country(country) if spec.needs_country else None
        key = (spec.name, country)
        if key in self._rankings:
            return self._rankings[key]
        code = spec.require_country(country)
        built = spec.build(MetricContext(
            view=self.view(spec.view_kind, code),
            oracle=self.oracle if spec.needs_oracle else None,
            trim=self.trim,
            country=code,
        ))
        self._rankings[key] = built
        return built
