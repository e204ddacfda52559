"""The per-path anomaly injector: the test oracle for
:func:`repro.bgp.anomalies.plant_anomalies`.

Each rolled record gets its clean path as an :class:`ASPath`, its own
:class:`Draws` (the scalar twin of the planter's counter-based draws,
in pure-Python ints), a ``make_*`` call that inserts the anomaly into
a list of ASNs and a validated :class:`ASPath` back — the definition
the token-space planter must equal cell for cell, token for token.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.bgp.anomalies import AnomalyConfig, InjectionSummary
from repro.net.aspath import ASPath

MASK = 0xFFFFFFFF


def fmix32(h: int) -> int:
    """MurmurHash3's 32-bit finalizer."""
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & MASK
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & MASK
    return h ^ (h >> 16)


def draw_below(seed: int, index: int, n: int) -> int:
    """Draw ``index`` of ``seed`` as an int in ``[0, n)``."""
    return (fmix32((seed + index * 0x9E3779B9) & MASK) * n) >> 32


class Draws:
    """One cell's draws, taken in turn: the ``randrange``, ``randint``
    and ``choice`` the ``make_*`` functions call, each spending the
    cell's next draw."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.taken = 0

    def below(self, n: int) -> int:
        value = draw_below(self.seed, self.taken, n)
        self.taken += 1
        return value

    def randrange(self, start: int, stop: int | None = None) -> int:
        if stop is None:
            start, stop = 0, start
        if stop <= start:
            raise ValueError(f"empty range [{start}, {stop})")
        return start + self.below(stop - start)

    def randint(self, low: int, high: int) -> int:
        return self.randrange(low, high + 1)

    def choice(self, options: Sequence[int]) -> int:
        return options[self.randrange(len(options))]


class AnomalyInjectionError(RuntimeError):
    """Raised when an anomaly cannot be planted into a given path."""


def make_loop(path: ASPath, draws: Draws) -> ASPath:
    """Insert a nonadjacent duplicate (``A C A`` pattern).

    Requires at least two ASes on the path; re-inserts an upstream ASN
    two or more hops later.
    """
    asns = list(path.asns)
    if len(asns) < 2:
        raise AnomalyInjectionError("path too short for a loop")
    victim_index = draws.randrange(len(asns) - 1)
    insert_at = draws.randrange(victim_index + 2, len(asns) + 1)
    asns.insert(insert_at, asns[victim_index])
    return ASPath(tuple(asns))


def make_poisoned(
    path: ASPath, clique: frozenset[int], draws: Draws, filler: int
) -> ASPath:
    """Wedge a non-clique AS between two adjacent clique ASes.

    This reproduces the paper's poisoning signature ("non-top-tier AS
    between top-tier ASes"). Requires an adjacent clique pair on the
    path; raises otherwise.
    """
    if filler in clique:
        raise AnomalyInjectionError("filler AS must be outside the clique")
    asns = list(path.asns)
    pairs = [
        index
        for index, (left, right) in enumerate(zip(asns, asns[1:]))
        if left in clique and right in clique
    ]
    if not pairs:
        raise AnomalyInjectionError("no adjacent clique pair on path")
    index = draws.choice(pairs)
    asns.insert(index + 1, filler)
    return ASPath(tuple(asns))


def make_unallocated(path: ASPath, unallocated_asn: int, draws: Draws) -> ASPath:
    """Insert an IANA-unassigned ASN at a random interior position."""
    asns = list(path.asns)
    position = draws.randrange(1, len(asns)) if len(asns) > 1 else 1
    asns.insert(position, unallocated_asn)
    return ASPath(tuple(asns))


def make_prepended(path: ASPath, draws: Draws) -> ASPath:
    """Repeat one AS 2–4 times (traffic-engineering prepending).

    The sanitizer collapses this without rejecting the path.
    """
    asns = list(path.asns)
    index = draws.randrange(len(asns))
    repeats = draws.randint(1, 3)
    for _ in range(repeats):
        asns.insert(index, asns[index])
    return ASPath(tuple(asns))


def make_route_server(path: ASPath, route_server_asn: int) -> ASPath:
    """Insert an IXP route-server ASN after the VP-side AS.

    Mimics route servers that do not strip their own ASN; the sanitizer
    removes the ASN and keeps the path.
    """
    asns = list(path.asns)
    if len(asns) < 2:
        raise AnomalyInjectionError("path too short for a route-server hop")
    asns.insert(1, route_server_asn)
    return ASPath(tuple(asns))


def inject_anomalies(
    records: "Iterable[tuple[tuple[int, int], ASPath]]",
    config: AnomalyConfig,
    clique: frozenset[int],
    unallocated_pool: list[int],
    route_servers: frozenset[int],
    roll_for,
    seed_for,
    filler_pool: list[int] | None = None,
) -> tuple[dict[tuple[int, int], ASPath], InjectionSummary]:
    """Plant anomalies into a stream of keyed clean paths.

    ``records`` yields ``(key, clean_path)`` pairs (we key by
    ``(vp_index, prefix_index)``). Returns only the overridden entries
    plus a summary. Each record receives at most one anomaly (draws are
    ordered: loop, poison, unallocated, prepend, route server) so the
    filter categories stay disjoint, as in Table 1.

    ``filler_pool`` provides non-clique ASNs used as poisoning filler;
    when omitted it is built lazily from paths already seen.

    ``roll_for`` and ``seed_for`` give a record key its uniform roll
    and the seed of its :class:`Draws`, so the injected set does not
    depend on iteration order.
    """
    if not unallocated_pool and config.unallocated_rate > 0:
        raise ValueError("unallocated_rate > 0 requires an unallocated ASN pool")
    overrides: dict[tuple[int, int], ASPath] = {}
    counts = {"loops": 0, "poisoned": 0, "unallocated": 0,
              "prepended": 0, "route_server": 0}
    route_server_list = sorted(route_servers)
    non_clique_fillers = sorted(set(filler_pool) - clique) if filler_pool else []
    total_rate = config.total_rate
    for key, path in records:
        if not non_clique_fillers:
            non_clique_fillers = sorted(path.unique_asns() - clique)
        roll = roll_for(key)
        if roll >= total_rate:
            continue
        draws = Draws(seed_for(key))
        try:
            if roll < config.loop_rate and len(path) >= 2:
                overrides[key] = make_loop(path, draws)
                counts["loops"] += 1
            elif roll < config.loop_rate + config.poison_rate:
                filler = (
                    draws.choice(non_clique_fillers)
                    if non_clique_fillers else 0
                )
                overrides[key] = make_poisoned(path, clique, draws, filler)
                counts["poisoned"] += 1
            elif roll < (config.loop_rate + config.poison_rate
                         + config.unallocated_rate):
                unallocated = draws.choice(unallocated_pool)
                overrides[key] = make_unallocated(path, unallocated, draws)
                counts["unallocated"] += 1
            elif roll < (config.loop_rate + config.poison_rate
                         + config.unallocated_rate + config.prepend_rate):
                overrides[key] = make_prepended(path, draws)
                counts["prepended"] += 1
            elif (roll < (config.loop_rate + config.poison_rate
                          + config.unallocated_rate + config.prepend_rate
                          + config.route_server_rate)
                  and route_server_list and len(path) >= 2):
                overrides[key] = make_route_server(
                    path, draws.choice(route_server_list)
                )
                counts["route_server"] += 1
        except AnomalyInjectionError:
            continue
    summary = InjectionSummary(**counts)
    return overrides, summary
