"""Topology realism validation, the checker the topology and
default-world tests vet generated worlds with.

Generated worlds are only useful if they look like the Internet in the
ways the metrics care about. This module computes the structural
statistics the measurement literature checks — degree distributions,
tier composition, customer-cone depth, reachability, multihoming — and
flags violations of the realism envelope, so world configurations can
be vetted before anyone trusts rankings computed on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.topology.model import ASGraph, ASRole
from repro.topology.world import World


@dataclass
class WorldRealismReport:
    """Structural statistics plus any realism warnings."""

    ases: int
    edges: int
    p2c_edges: int
    p2p_edges: int
    clique_size: int
    stub_share: float
    max_degree: int
    mean_degree: float
    #: fraction of non-clique ASes with >= 2 providers
    multihomed_share: float
    #: fraction of ASes that can reach the clique by provider chains
    upstream_connected: float
    #: longest provider chain from any AS up to a provider-free AS
    max_hierarchy_depth: int
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether no realism warnings fired."""
        return not self.warnings

    def render(self) -> str:
        """Printable summary."""
        lines = [
            f"ASes: {self.ases}, edges: {self.edges} "
            f"({self.p2c_edges} p2c / {self.p2p_edges} p2p)",
            f"clique: {self.clique_size}, stubs: {100 * self.stub_share:.0f}%, "
            f"degree mean {self.mean_degree:.1f} max {self.max_degree}",
            f"multihomed: {100 * self.multihomed_share:.0f}%, "
            f"upstream-connected: {100 * self.upstream_connected:.0f}%, "
            f"hierarchy depth: {self.max_hierarchy_depth}",
        ]
        for warning in self.warnings:
            lines.append(f"WARNING: {warning}")
        return "\n".join(lines)


def validate_realism(world: World) -> WorldRealismReport:
    """Compute structural statistics and check the realism envelope.

    The envelope is intentionally loose — it catches degenerate worlds
    (no hierarchy, disconnected islands, clique-free economies), not
    stylistic differences:

    * a non-empty, fully-meshed, transit-free clique;
    * most ASes are stubs or access networks (the real Internet is
      ~85 % stub);
    * p2c edges outnumber p2p edges;
    * (almost) every AS reaches the clique by climbing providers;
    * provider chains are shallow (the Internet's hierarchy is ~6 deep).
    """
    graph = world.graph
    asns = graph.asns()
    n = len(asns)
    p2c = sum(1 for _, _, kind in graph.edges() if kind.value == "p2c")
    p2p = graph.edge_count() - p2c
    clique = graph.clique()

    degrees = [graph.degree(asn) for asn in asns]
    stubs = [
        asn for asn in asns
        if graph.node(asn).role in (ASRole.STUB, ASRole.ACCESS)
    ]
    non_clique = [asn for asn in asns if asn not in clique
                  and graph.node(asn).role is not ASRole.ROUTE_SERVER]
    multihomed = sum(1 for asn in non_clique if len(graph.providers_of(asn)) >= 2)

    # Upstream reachability + hierarchy depth via memoised DFS.
    depth_cache: dict[int, int] = {}

    def depth(asn: int) -> int:
        if asn in depth_cache:
            return depth_cache[asn]
        depth_cache[asn] = 0  # break would-be cycles defensively
        providers = graph.providers_of(asn)
        value = 0 if not providers else 1 + max(depth(p) for p in providers)
        depth_cache[asn] = value
        return value

    def reaches_top(asn: int) -> bool:
        stack, seen = [asn], set()
        while stack:
            here = stack.pop()
            if here in clique or (
                not graph.providers_of(here) and graph.peers_of(here)
            ):
                # clique member, or a transit-free AS peering its way in
                return True
            if here in seen:
                continue
            seen.add(here)
            stack.extend(graph.providers_of(here))
        return False

    operational = [
        asn for asn in asns
        if graph.node(asn).role is not ASRole.ROUTE_SERVER
    ]
    connected = sum(1 for asn in operational if reaches_top(asn))
    max_depth = max((depth(asn) for asn in asns), default=0)

    report = WorldRealismReport(
        ases=n,
        edges=graph.edge_count(),
        p2c_edges=p2c,
        p2p_edges=p2p,
        clique_size=len(clique),
        stub_share=len(stubs) / n if n else 0.0,
        max_degree=max(degrees, default=0),
        mean_degree=sum(degrees) / n if n else 0.0,
        multihomed_share=multihomed / len(non_clique) if non_clique else 0.0,
        upstream_connected=connected / len(operational) if operational else 0.0,
        max_hierarchy_depth=max_depth,
    )

    if not clique:
        report.warnings.append("no top-tier clique")
    else:
        for left in clique:
            for right in clique:
                if left < right and graph.relationship(left, right) != "p2p":
                    report.warnings.append(
                        f"clique not fully meshed: AS{left}–AS{right}"
                    )
        for member in clique:
            if graph.providers_of(member):
                report.warnings.append(f"clique member AS{member} buys transit")
    if report.stub_share < 0.3:
        report.warnings.append(
            f"stub/access share {report.stub_share:.0%} is unrealistically low"
        )
    if p2c <= p2p:
        report.warnings.append("peering edges outnumber transit edges")
    if report.upstream_connected < 0.99:
        report.warnings.append(
            f"only {report.upstream_connected:.0%} of ASes reach the top tier"
        )
    if report.max_hierarchy_depth > 10:
        report.warnings.append(
            f"provider chains {report.max_hierarchy_depth} deep (Internet ≈ 6)"
        )
    return report
