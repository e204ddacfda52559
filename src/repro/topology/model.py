"""The AS-level topology model: nodes, business relationships, graph.

Ground truth for the simulated world. The BGP simulator propagates
routes over this graph; the relationship-inference substrate tries to
recover the labels from paths alone; the geolocation database is
derived from each AS's prefix originations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.net.asn import ASNRegistry, is_public_asn
from repro.net.prefix import Prefix


class TopologyError(ValueError):
    """Raised for structurally invalid topology operations."""


class Relationship(enum.Enum):
    """Business relationship between two adjacent ASes.

    ``P2C`` is directional (provider sells transit to customer);
    ``P2P`` is settlement-free peering, symmetric.
    """

    P2C = "p2c"
    P2P = "p2p"


class ASRole(enum.Enum):
    """Coarse market role of an AS; drives generation and reporting."""

    CLIQUE = "clique"  # tier-1 multinational, full p2p mesh at the top
    TRANSIT = "transit"  # national/regional transit provider
    ACCESS = "access"  # eyeball/access network
    STUB = "stub"  # enterprise/edge, no customers
    CONTENT = "content"  # cloud/CDN, many peers, prefixes in many countries
    EDUCATION = "education"  # NREN-style network
    ROUTE_SERVER = "route_server"  # IXP route server (removed by sanitizer)


@dataclass(frozen=True, slots=True)
class OriginatedPrefix:
    """A prefix an AS announces, with the ground-truth country of its
    addresses.

    ``country`` is where the bulk of addresses live. ``foreign_share``
    (0..1) of addresses instead geolocate to ``foreign_country`` —
    cross-border assignments are what make the 50 %-threshold prefix
    geolocation (§3.2.1) non-trivial.
    """

    prefix: Prefix
    country: str
    foreign_share: float = 0.0
    foreign_country: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.foreign_share < 1.0:
            raise TopologyError(f"foreign_share out of range: {self.foreign_share}")
        if self.foreign_share > 0 and not self.foreign_country:
            raise TopologyError("foreign_share set without foreign_country")
        if self.foreign_country == self.country:
            raise TopologyError("foreign_country equals home country")


@dataclass(slots=True)
class ASNode:
    """An autonomous system in the simulated world.

    ``registry_country`` is where the ASN is registered (what IHR's AHC
    metric keys on); prefixes may geolocate elsewhere (what our metrics
    key on) — the distinction reproduces the paper's Amazon example.
    """

    asn: int
    name: str
    registry_country: str
    role: ASRole = ASRole.STUB
    prefixes: list[OriginatedPrefix] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not is_public_asn(self.asn):
            raise TopologyError(f"ASN {self.asn} is not publicly assignable")

    def originate(
        self,
        prefix: Prefix | str,
        country: str,
        foreign_share: float = 0.0,
        foreign_country: str | None = None,
    ) -> OriginatedPrefix:
        """Add an origination; returns the record."""
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        record = OriginatedPrefix(prefix, country, foreign_share, foreign_country)
        self.prefixes.append(record)
        return record

    def originated_prefixes(self) -> list[Prefix]:
        """Just the prefixes, without geography."""
        return [record.prefix for record in self.prefixes]

    def address_count(self) -> int:
        """Total addresses across all originations (overlaps not deduped)."""
        return sum(record.prefix.num_addresses() for record in self.prefixes)

    def __str__(self) -> str:
        return f"AS{self.asn} ({self.name}, {self.registry_country})"


class ASGraph:
    """ASes plus their relationship edges, with consistency invariants.

    Invariants enforced on mutation:
      * both endpoints exist,
      * no self-relationships,
      * at most one relationship per AS pair,
      * ASNs are registered in the attached :class:`ASNRegistry`.
    """

    def __init__(self, registry: ASNRegistry | None = None) -> None:
        self.asn_registry = registry if registry is not None else ASNRegistry()
        self._nodes: dict[int, ASNode] = {}
        self._providers: dict[int, set[int]] = {}
        self._customers: dict[int, set[int]] = {}
        self._peers: dict[int, set[int]] = {}
        self._version = 0
        self._p2c_cache: tuple[int, frozenset[tuple[int, int]]] | None = None

    @property
    def version(self) -> int:
        """Monotonic structural version: bumped by every node or edge
        mutation, so derived snapshots (e.g. the propagation adjacency)
        can be cached safely against a mutable graph."""
        return self._version

    # -- nodes -------------------------------------------------------------

    def add_as(
        self,
        asn: int,
        name: str | None = None,
        registry_country: str = "ZZ",
        role: ASRole = ASRole.STUB,
    ) -> ASNode:
        """Create and register an AS; allocates the ASN if needed."""
        if asn in self._nodes:
            raise TopologyError(f"AS{asn} already in graph")
        if not is_public_asn(asn):
            raise TopologyError(f"ASN {asn} is not publicly assignable")
        if not self.asn_registry.is_allocated(asn):
            self.asn_registry.allocate(asn)
        self._version += 1
        node = ASNode(asn, name or f"AS{asn}", registry_country, role)
        self._nodes[asn] = node
        self._providers[asn] = set()
        self._customers[asn] = set()
        self._peers[asn] = set()
        return node

    def remove_as(self, asn: int) -> ASNode:
        """Remove an AS and every relationship it participates in.

        Returns the removed node. The ASN stays allocated in the
        registry (real ASNs do not get recycled when a network dies).
        """
        if asn not in self._nodes:
            raise TopologyError(f"AS{asn} not in graph")
        for provider in list(self._providers[asn]):
            self._customers[provider].discard(asn)
        for customer in list(self._customers[asn]):
            self._providers[customer].discard(asn)
        for peer in list(self._peers[asn]):
            self._peers[peer].discard(asn)
        del self._providers[asn]
        del self._customers[asn]
        del self._peers[asn]
        self._version += 1
        return self._nodes.pop(asn)

    def copy(self) -> "ASGraph":
        """An independent deep-ish copy (nodes shared structurally:
        new adjacency sets, new node objects with shared prefix lists
        copied shallowly)."""
        clone = ASGraph(self.asn_registry)
        for asn, node in self._nodes.items():
            clone._nodes[asn] = ASNode(
                node.asn, node.name, node.registry_country, node.role,
                list(node.prefixes),
            )
        clone._providers = {a: set(s) for a, s in self._providers.items()}
        clone._customers = {a: set(s) for a, s in self._customers.items()}
        clone._peers = {a: set(s) for a, s in self._peers.items()}
        return clone

    def node(self, asn: int) -> ASNode:
        """The node for ``asn``; raises ``KeyError`` when absent."""
        return self._nodes[asn]

    def maybe_node(self, asn: int) -> ASNode | None:
        """The node for ``asn`` or ``None``."""
        return self._nodes.get(asn)

    def asns(self) -> list[int]:
        """All ASNs, sorted."""
        return sorted(self._nodes)

    def nodes(self) -> Iterator[ASNode]:
        """All nodes in ASN order."""
        for asn in sorted(self._nodes):
            yield self._nodes[asn]

    def __contains__(self, asn: int) -> bool:
        return asn in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    # -- edges -------------------------------------------------------------

    def add_p2c(self, provider: int, customer: int) -> None:
        """Record that ``provider`` sells transit to ``customer``."""
        self._check_new_edge(provider, customer)
        self._version += 1
        self._customers[provider].add(customer)
        self._providers[customer].add(provider)

    def add_p2p(self, left: int, right: int) -> None:
        """Record settlement-free peering between two ASes."""
        self._check_new_edge(left, right)
        self._version += 1
        self._peers[left].add(right)
        self._peers[right].add(left)

    def remove_edge(self, left: int, right: int) -> None:
        """Remove whatever relationship exists between the pair."""
        if self.relationship(left, right) is None:
            raise TopologyError(f"no relationship between AS{left} and AS{right}")
        self._version += 1
        self._customers[left].discard(right)
        self._customers[right].discard(left)
        self._providers[left].discard(right)
        self._providers[right].discard(left)
        self._peers[left].discard(right)
        self._peers[right].discard(left)

    def relationship(self, left: int, right: int) -> str | None:
        """``"p2c"`` (left provides to right), ``"c2p"``, ``"p2p"``, or
        ``None`` as seen from ``left``."""
        if right in self._customers.get(left, ()):
            return "p2c"
        if right in self._providers.get(left, ()):
            return "c2p"
        if right in self._peers.get(left, ()):
            return "p2p"
        return None

    # The structural memos keyed on _version — the p2c edge set below
    # and the external adjacency snapshot in repro.bgp.propagation —
    # read _nodes, _providers, _customers and _peers, so every method
    # mutating one of them must bump the version;
    # tests/topology/test_graph_version.py checks both memos against a
    # fresh copy after random sequences of mutations.

    def p2c_edges(self) -> frozenset[tuple[int, int]]:
        """Every (provider, customer) transit pair as a flat edge set.

        ``(a, b) in graph.p2c_edges()`` is exactly
        ``graph.relationship(a, b) == "p2c"`` — a bulk form of the
        oracle interface for hot loops that test many links (the
        transit-suffix pass in :mod:`repro.perf.cone`).

        Memoised against :attr:`version`, so repeated callers on an
        unmutated graph get the *same* frozenset object back — identity
        is a valid cache key for derived per-edge-set state (e.g. the
        path store's interned transit suffixes).
        """
        cached = self._p2c_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        edges = frozenset(
            (provider, customer)
            for provider, customers in self._customers.items()
            for customer in customers
        )
        self._p2c_cache = (self._version, edges)
        return edges

    def providers_of(self, asn: int) -> frozenset[int]:
        """Transit providers of ``asn``."""
        return frozenset(self._providers[asn])

    def customers_of(self, asn: int) -> frozenset[int]:
        """Transit customers of ``asn``."""
        return frozenset(self._customers[asn])

    def peers_of(self, asn: int) -> frozenset[int]:
        """Settlement-free peers of ``asn``."""
        return frozenset(self._peers[asn])

    def neighbors_of(self, asn: int) -> frozenset[int]:
        """All adjacent ASes regardless of relationship."""
        return frozenset(
            self._providers[asn] | self._customers[asn] | self._peers[asn]
        )

    def degree(self, asn: int) -> int:
        """Number of adjacent ASes."""
        return len(self.neighbors_of(asn))

    def transit_degree(self, asn: int) -> int:
        """Number of customers — the degree notion AS-Rank sorts by."""
        return len(self._customers[asn])

    def edges(self) -> Iterator[tuple[int, int, Relationship]]:
        """All edges once each: ``(provider, customer, P2C)`` or
        ``(low, high, P2P)``."""
        for provider in sorted(self._customers):
            for customer in sorted(self._customers[provider]):
                yield (provider, customer, Relationship.P2C)
        for left in sorted(self._peers):
            for right in sorted(self._peers[left]):
                if left < right:
                    yield (left, right, Relationship.P2P)

    def edge_count(self) -> int:
        """Total number of relationships."""
        return sum(1 for _ in self.edges())

    # -- derived sets --------------------------------------------------------

    def clique(self) -> frozenset[int]:
        """The ground-truth top-tier clique (ASes with role CLIQUE)."""
        return frozenset(
            asn for asn, node in self._nodes.items() if node.role is ASRole.CLIQUE
        )

    def route_servers(self) -> frozenset[int]:
        """IXP route-server ASNs (stripped from paths by the sanitizer)."""
        return frozenset(
            asn for asn, node in self._nodes.items() if node.role is ASRole.ROUTE_SERVER
        )

    def by_role(self, role: ASRole) -> list[int]:
        """ASNs with the given role, sorted."""
        return sorted(asn for asn, node in self._nodes.items() if node.role is role)

    def by_registry_country(self, code: str) -> list[int]:
        """ASNs registered in a country (what AHC keys on), sorted."""
        return sorted(
            asn for asn, node in self._nodes.items() if node.registry_country == code
        )

    def originations(self) -> Iterator[tuple[int, OriginatedPrefix]]:
        """Every (origin ASN, origination record) pair."""
        for asn in sorted(self._nodes):
            for record in self._nodes[asn].prefixes:
                yield (asn, record)

    def validate(self) -> None:
        """Check structural invariants; raises :class:`TopologyError`.

        Verifies relationship symmetry and that the provider→customer
        digraph is acyclic (a cyclic transit economy is nonsense and
        breaks valley-free propagation).
        """
        for asn in self._nodes:
            for provider in self._providers[asn]:
                if asn not in self._customers[provider]:
                    raise TopologyError(f"asymmetric p2c: {provider}->{asn}")
            for peer in self._peers[asn]:
                if asn not in self._peers[peer]:
                    raise TopologyError(f"asymmetric p2p: {asn}--{peer}")
        self._check_acyclic()

    # -- internals -------------------------------------------------------------

    def _check_new_edge(self, left: int, right: int) -> None:
        if left == right:
            raise TopologyError(f"self relationship on AS{left}")
        for asn in (left, right):
            if asn not in self._nodes:
                raise TopologyError(f"AS{asn} not in graph")
        if self.relationship(left, right) is not None:
            raise TopologyError(
                f"AS{left} and AS{right} already related "
                f"({self.relationship(left, right)})"
            )

    def _check_acyclic(self) -> None:
        state: dict[int, int] = {}  # 0 = visiting, 1 = done

        def visit(start: int) -> None:
            stack: list[tuple[int, Iterator[int]]] = [
                (start, iter(sorted(self._customers[start])))
            ]
            state[start] = 0
            while stack:
                asn, it = stack[-1]
                advanced = False
                for customer in it:
                    mark = state.get(customer)
                    if mark == 0:
                        raise TopologyError(f"p2c cycle through AS{customer}")
                    if mark is None:
                        state[customer] = 0
                        stack.append(
                            (customer, iter(sorted(self._customers[customer])))
                        )
                        advanced = True
                        break
                if not advanced:
                    state[asn] = 1
                    stack.pop()

        for asn in self._nodes:
            if asn not in state:
                visit(asn)
