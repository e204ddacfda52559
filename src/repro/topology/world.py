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

        The content is serialized in one ``json.dumps(content,
        sort_keys=True, separators=(",", ":"))`` call (about 100 KB on
        ``default``, 200 KB on ``large``) and hashed with sha256; the
        serve keyspace pins these bytes.
        """
        graph = self.graph
        content = {
            "ases": [
                [
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
                for node in sorted(graph.nodes(), key=lambda n: n.asn)
            ],
            "collectors": [
                [
                    collector.name, collector.project.value,
                    collector.country, collector.multihop,
                    [[vp.ip, vp.asn] for vp in collector.vps],
                ]
                for collector in sorted(self.collectors, key=lambda c: c.name)
            ],
            "countries": sorted(self.countries.codes()),
            "edges": sorted(
                [left, right, relationship.value]
                for left, right, relationship in graph.edges()
            ),
        }
        text = json.dumps(content, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

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
