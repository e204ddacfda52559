"""Injection of the path pathologies the sanitizer must catch.

The paper's Table 1 rejects paths that contain loops (nonadjacent
duplicate ASes), appear poisoned (a non-top-tier AS wedged between two
top-tier ASes), or mention unallocated ASNs; it also *cleans* —
without rejecting — prepended paths and paths through IXP route-server
ASNs. This module deliberately plants each pathology into otherwise
clean simulated paths so the pipeline filters real positives, and so
tests can assert both directions (planted anomalies are caught, clean
paths survive).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from repro.net.aspath import ASPath


class AnomalyInjectionError(RuntimeError):
    """Raised when an anomaly cannot be planted into a given path."""


@dataclass(frozen=True, slots=True)
class AnomalyConfig:
    """Per-record probabilities for each pathology (independent draws).

    Rates apply per (VP, prefix) record. Defaults approximate the
    relative magnitudes in the paper's Table 1: loops and poisoning are
    rare, prepending and route-server artifacts are common enough to
    exercise the cleaning steps.
    """

    loop_rate: float = 0.001
    poison_rate: float = 0.0002
    unallocated_rate: float = 0.001
    prepend_rate: float = 0.02
    route_server_rate: float = 0.01

    def __post_init__(self) -> None:
        for name in ("loop_rate", "poison_rate", "unallocated_rate",
                     "prepend_rate", "route_server_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of range: {value}")

    @property
    def total_rate(self) -> float:
        """The chance a record is rolled for any anomaly at all."""
        return (
            self.loop_rate + self.poison_rate + self.unallocated_rate
            + self.prepend_rate + self.route_server_rate
        )

    @classmethod
    def none(cls) -> "AnomalyConfig":
        """A config that injects nothing (clean-world runs)."""
        return cls(0.0, 0.0, 0.0, 0.0, 0.0)


def make_loop(path: ASPath, rng: random.Random) -> ASPath:
    """Insert a nonadjacent duplicate (``A C A`` pattern).

    Requires at least two ASes on the path; re-inserts an upstream ASN
    two or more hops later.
    """
    asns = list(path.asns)
    if len(asns) < 2:
        raise AnomalyInjectionError("path too short for a loop")
    victim_index = rng.randrange(len(asns) - 1)
    insert_at = rng.randrange(victim_index + 2, len(asns) + 1)
    asns.insert(insert_at, asns[victim_index])
    return ASPath(tuple(asns))


def make_poisoned(
    path: ASPath, clique: frozenset[int], rng: random.Random, filler: int
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
    index = rng.choice(pairs)
    asns.insert(index + 1, filler)
    return ASPath(tuple(asns))


def make_unallocated(path: ASPath, unallocated_asn: int, rng: random.Random) -> ASPath:
    """Insert an IANA-unassigned ASN at a random interior position."""
    asns = list(path.asns)
    position = rng.randrange(1, len(asns)) if len(asns) > 1 else 1
    asns.insert(position, unallocated_asn)
    return ASPath(tuple(asns))


def make_prepended(path: ASPath, rng: random.Random) -> ASPath:
    """Repeat one AS 2–4 times (traffic-engineering prepending).

    The sanitizer collapses this without rejecting the path.
    """
    asns = list(path.asns)
    index = rng.randrange(len(asns))
    repeats = rng.randint(1, 3)
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


@dataclass(frozen=True, slots=True)
class InjectionSummary:
    """What the injector actually planted (ground truth for tests)."""

    loops: int
    poisoned: int
    unallocated: int
    prepended: int
    route_server: int

    def total(self) -> int:
        """All planted anomalies."""
        return (
            self.loops
            + self.poisoned
            + self.unallocated
            + self.prepended
            + self.route_server
        )


def inject_anomalies(
    records: "Iterable[tuple[tuple[int, int], ASPath]]",
    config: AnomalyConfig,
    clique: frozenset[int],
    unallocated_pool: list[int],
    route_servers: frozenset[int],
    rng: random.Random,
    filler_pool: list[int] | None = None,
    roll_for=None,
    rng_for=None,
) -> tuple[dict[tuple[int, int], ASPath], InjectionSummary]:
    """Plant anomalies into a stream of keyed clean paths.

    ``records`` yields ``(key, clean_path)`` pairs (we key by
    ``(vp_index, prefix_index)``). Returns only the overridden entries
    plus a summary. Each record receives at most one anomaly (draws are
    ordered: loop, poison, unallocated, prepend, route server) so the
    filter categories stay disjoint, as in Table 1.

    ``filler_pool`` provides non-clique ASNs used as poisoning filler;
    when omitted it is built lazily from paths already seen.

    ``roll_for``/``rng_for`` optionally supply a hash-stable uniform
    draw and a record-keyed RNG per record key, so the injected set
    does not depend on iteration order (used by the RIB series).
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
        roll = roll_for(key) if roll_for is not None else rng.random()
        if roll >= total_rate:
            # the overwhelmingly common case: nothing planted, so the
            # record-keyed RNG (an expensive Random() construction) is
            # never needed — rng_for is pure in key, so deferring it
            # cannot change which draws a planted record sees
            continue
        local_rng = rng_for(key) if rng_for is not None else rng
        try:
            if roll < config.loop_rate and len(path) >= 2:
                overrides[key] = make_loop(path, local_rng)
                counts["loops"] += 1
            elif roll < config.loop_rate + config.poison_rate:
                filler = (
                    local_rng.choice(non_clique_fillers)
                    if non_clique_fillers else 0
                )
                overrides[key] = make_poisoned(path, clique, local_rng, filler)
                counts["poisoned"] += 1
            elif roll < (config.loop_rate + config.poison_rate
                         + config.unallocated_rate):
                unallocated = local_rng.choice(unallocated_pool)
                overrides[key] = make_unallocated(path, unallocated, local_rng)
                counts["unallocated"] += 1
            elif roll < (config.loop_rate + config.poison_rate
                         + config.unallocated_rate + config.prepend_rate):
                overrides[key] = make_prepended(path, local_rng)
                counts["prepended"] += 1
            elif (roll < (config.loop_rate + config.poison_rate
                          + config.unallocated_rate + config.prepend_rate
                          + config.route_server_rate)
                  and route_server_list and len(path) >= 2):
                overrides[key] = make_route_server(
                    path, local_rng.choice(route_server_list)
                )
                counts["route_server"] += 1
        except AnomalyInjectionError:
            continue
    summary = InjectionSummary(**counts)
    return overrides, summary
