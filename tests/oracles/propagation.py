"""Gao–Rexford route propagation by definition, one origin at a time.

Every AS selects, toward one origin, the best route its neighbors
export to it: a customer-learned route beats a peer route, which beats
a provider route; within a class the shorter path wins, and the
tie-break decides between equally short candidates. An AS exports its
customer routes (and its own prefixes) to everyone and its peer and
provider routes to its customers only, so the sweep runs in three
breadth-first phases:

1. **up** — customer routes climb provider links;
2. **across** — the best customer route crosses one peer link;
3. **down** — every selected route descends to customers.

The tie-breaks: ``"asn"`` prefers the lowest next-hop ASN; ``"hash"``
prefers the lowest :func:`hash_mix` of (holder, next hop, origin,
salt), then the lowest next hop.

:func:`repro.bgp.propagation.propagate_all`'s array pass, which runs
the phases for every origin at once, is held to :func:`propagate`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.bgp.policy import Route, RouteClass
from repro.obs.metrics import NULL_HISTOGRAM
from repro.topology.model import ASGraph


def hash_mix(holder: int, next_hop: int, origin: int, salt: int = 0) -> int:
    """The ``hash`` tie-break's deterministic 32-bit mix."""
    value = (
        holder * 2654435761 + next_hop * 2246822519
        + origin * 3266489917 + salt * 374761393
    ) & 0xFFFFFFFF
    value ^= value >> 16
    value = (value * 2654435761) & 0xFFFFFFFF
    return value ^ (value >> 13)


def tiebreak_key(
    tiebreak: str, origin: int, salt: int = 0
) -> Callable[[int, int], tuple[int, int]]:
    """``(holder, next hop) -> key``; the lowest key wins a tie."""
    if tiebreak == "asn":
        return lambda holder, next_hop: (next_hop, 0)
    if tiebreak == "hash":
        return lambda holder, next_hop: (
            hash_mix(holder, next_hop, origin, salt), next_hop,
        )
    raise ValueError(f"unknown tiebreak {tiebreak!r}")


def _best(offers: Iterable[tuple[int, int, Any]]) -> dict[int, int]:
    """Holder → the next hop of its lowest-ranked ``(holder, next hop,
    rank)`` offer."""
    chosen: dict[int, tuple[Any, int]] = {}
    for holder, next_hop, rank in offers:
        if holder not in chosen or rank < chosen[holder][0]:
            chosen[holder] = (rank, next_hop)
    return {holder: next_hop for holder, (_, next_hop) in chosen.items()}


def propagate(
    graph: ASGraph,
    origin: int,
    tiebreak: str = "asn",
    salt: int = 0,
    frontier_hist=NULL_HISTOGRAM,
    relevant: frozenset[int] | None = None,
) -> dict[int, Route]:
    """The route every AS selects toward ``origin``.

    ``relevant`` (a :func:`repro.bgp.propagation.keep_closure`) prunes
    the down phase to the ASes that have a kept AS in their customer
    cone; the routes there are the unpruned ones. ``frontier_hist``
    observes the size of every up-phase level after the origin's.
    """
    key_of = tiebreak_key(tiebreak, origin, salt)

    # 1. up: customer routes climb provider links, level by level
    up = {origin: (origin,)}
    frontier = [origin]
    while frontier:
        level = _best(
            (provider, asn, key_of(provider, asn))
            for asn in frontier for provider in graph.providers_of(asn)
            if provider not in up
        )
        for holder, next_hop in level.items():
            up[holder] = (holder,) + up[next_hop]
        if level:
            frontier_hist.observe(len(level))
        frontier = list(level)

    # 2. across: the shortest customer route crosses one peer link
    across = _best(
        (peer, asn, (len(up[asn]) + 1, key_of(peer, asn)))
        for asn in up for peer in graph.peers_of(asn) if peer not in up
    )
    routes = {origin: Route((origin,), RouteClass.ORIGIN)}
    for holder, path in up.items():
        if holder != origin:
            routes[holder] = Route(path, RouteClass.CUSTOMER)
    for holder, next_hop in across.items():
        routes[holder] = Route((holder,) + up[next_hop], RouteClass.PEER)

    # 3. down: selected routes descend to customers, shortest first
    length, longest = 1, max(len(route.path) for route in routes.values())
    while length <= longest:
        exporters = [
            asn for asn, route in routes.items() if len(route.path) == length
        ]
        descending = _best(
            (customer, asn, key_of(customer, asn))
            for asn in exporters for customer in graph.customers_of(asn)
            if customer not in routes
            and (relevant is None or customer in relevant)
        )
        for holder, next_hop in descending.items():
            routes[holder] = Route(
                (holder,) + routes[next_hop].path, RouteClass.PROVIDER
            )
            longest = max(longest, length + 1)
        length += 1
    return routes
