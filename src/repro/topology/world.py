"""The :class:`World`: one simulated Internet.

Bundles the AS graph (ground-truth relationships and prefix
originations), the country registry, and the collector/VP ecosystem.
Everything downstream — propagation, RIB generation, geolocation,
sanitization, rankings — consumes a world.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import partial
from typing import Iterator

from repro.bgp.collectors import CollectorSet
from repro.net.prefix import Prefix
from repro.topology.countries import (
    CountryRegistry,
    default_registry,
    normalize_country,
)
from repro.topology.model import ASGraph, OriginatedPrefix


@dataclass
class World:
    """A simulated Internet: topology + geography + measurement fabric."""

    graph: ASGraph
    countries: CountryRegistry = field(default_factory=default_registry)
    collectors: CollectorSet = field(default_factory=CollectorSet)
    name: str = "world"

    def origins(self) -> list[int]:
        """ASes that originate at least one prefix, sorted."""
        return [asn for asn in self.graph.asns() if self.graph.node(asn).prefixes]

    def originations(self) -> list[tuple[int, OriginatedPrefix]]:
        """Every (origin ASN, origination) pair in deterministic order."""
        return list(self.graph.originations())

    def announced_prefixes(self) -> list[Prefix]:
        """All announced prefixes in deterministic order."""
        return [record.prefix for _, record in self.graph.originations()]

    def vp_asns(self) -> frozenset[int]:
        """ASes hosting at least one vantage point."""
        return self.collectors.vp_asns()

    def country_code(self, code: str) -> str:
        """The canonical spelling of a country of this world, else the
        one ``ValueError`` every surface shows for an unknown country."""
        canonical = normalize_country(code)
        if canonical not in self.countries:
            raise ValueError(
                f"unknown country {code!r} for world {self.name!r} "
                f"(valid: {', '.join(self.countries.codes())})"
            )
        return canonical

    def validate(self) -> None:
        """Cross-check graph, collectors, and countries.

        Raises ``ValueError`` on: VPs in unknown ASes, collectors or
        originations in unknown countries, or graph invariant failures.
        """
        self.graph.validate()
        for collector in self.collectors:
            if collector.country not in self.countries:
                raise ValueError(
                    f"collector {collector.name} in unknown country {collector.country}"
                )
            for vp in collector.vps:
                if vp.asn not in self.graph:
                    raise ValueError(f"VP {vp.ip} in unknown AS{vp.asn}")
        for asn, record in self.graph.originations():
            if record.country not in self.countries:
                raise ValueError(
                    f"AS{asn} originates {record.prefix} in unknown country "
                    f"{record.country}"
                )
            if record.foreign_country and record.foreign_country not in self.countries:
                raise ValueError(
                    f"AS{asn} origination {record.prefix} references unknown "
                    f"country {record.foreign_country}"
                )

    def fingerprint(self) -> str:
        """A digest of the world's *content* — everything that shapes
        rankings: the AS graph (nodes, roles, originations), the edge
        set with relationship labels, the country registry, and the
        collector/VP fabric.

        ``name`` is deliberately excluded: two worlds with the same
        catalog label but different content must fingerprint apart
        (the serving layer's artifact store keys on this, so a
        regenerated ``name@seed`` world with different content misses
        the cache instead of serving stale rankings), and two
        identical worlds under different labels fingerprint together.
        Floats round-trip through ``repr`` so the digest is value-exact.

        The digest is computed *streamingly* — the canonical JSON is
        fed to sha256 piecewise (:meth:`_fingerprint_parts`), never
        held as one string — but the bytes hashed are identical to
        serializing the whole content dict with
        ``json.dumps(content, sort_keys=True, separators=(",", ":"))``,
        so fingerprints (and every artifact-store key derived from
        them) are unchanged from the materialized implementation.
        """
        digest = hashlib.sha256()
        for part in self._fingerprint_parts():
            digest.update(part.encode("utf-8"))
        return digest.hexdigest()[:16]

    def _fingerprint_parts(self) -> "Iterator[str]":
        """Canonical-JSON fragments of the fingerprint content, in
        exactly the byte order ``json.dumps(..., sort_keys=True)``
        would emit (top-level keys alphabetical: ases, collectors,
        countries, edges; one fragment per AS / collector keeps the
        working set at one node's originations)."""
        dumps = partial(json.dumps, sort_keys=True, separators=(",", ":"))
        graph = self.graph
        yield '{"ases":['
        for index, node in enumerate(sorted(graph.nodes(), key=lambda n: n.asn)):
            item = [
                node.asn, node.name, node.registry_country,
                node.role.value,
                [
                    [
                        str(record.prefix), record.country,
                        repr(record.foreign_share),
                        record.foreign_country or "",
                    ]
                    for record in node.prefixes
                ],
            ]
            yield ("," if index else "") + dumps(item)
        yield '],"collectors":['
        for index, collector in enumerate(
            sorted(self.collectors, key=lambda c: c.name)
        ):
            item = [
                collector.name, collector.project.value,
                collector.country, collector.multihop,
                [[vp.ip, vp.asn] for vp in collector.vps],
            ]
            yield ("," if index else "") + dumps(item)
        yield '],"countries":'
        yield dumps(sorted(self.countries.codes()))
        yield ',"edges":'
        yield dumps(sorted(
            [left, right, relationship.value]
            for left, right, relationship in graph.edges()
        ))
        yield "}"

    def summary(self) -> dict[str, int]:
        """Headline sizes for logging and reports."""
        return {
            "ases": len(self.graph),
            "edges": self.graph.edge_count(),
            "prefixes": len(self.announced_prefixes()),
            "countries": len(self.countries),
            "collectors": len(self.collectors),
            "vps": len(self.collectors.all_vps()),
        }
