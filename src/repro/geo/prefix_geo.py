"""Majority-threshold prefix geolocation (paper §3.2.1 and Appendix B).

Procedure, as in the paper:

1. split the announced prefixes into non-overlapping blocks of
   addresses mapped to their most specific prefix;
2. drop prefixes entirely covered by more specifics (they own no
   addresses — 1.2 % of the paper's data);
3. geolocate the addresses of each prefix's *owned* blocks with the
   address database;
4. assign the prefix to a country only when that country holds a
   strict majority above the threshold (default 50 %) of the owned
   addresses; otherwise the prefix — and every path toward it — is
   filtered ("geolocated to no or multiple countries").

Steps 1–3 are array passes over address intervals
(:func:`address_table`): the announced prefixes are painted into one
interval map, shortest first, so each address belongs to its most
specific announcement; that map is overlaid on the database's painted
map, and exact integer address counts are summed per (prefix,
country). Step 4 (:meth:`AddressTable.decide`) reads the table, so a
threshold sweep builds it once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from repro.geo.database import GeoDatabase
from repro.geo.intervals import IntervalMap, offsets
from repro.net.prefix import Prefix
from repro.obs.trace import NULL_TRACER


@dataclass(frozen=True, slots=True)
class GeolocationStats:
    """Per-country filtering statistics (Tables 13–14)."""

    country: str
    total_prefixes: int
    filtered_prefixes: int
    total_addresses: int
    filtered_addresses: int

    @property
    def pct_prefixes_filtered(self) -> float:
        """Percentage of the country's prefixes dropped by the threshold."""
        if self.total_prefixes == 0:
            return 0.0
        return 100.0 * self.filtered_prefixes / self.total_prefixes

    @property
    def pct_addresses_filtered(self) -> float:
        """Percentage of the country's addresses dropped by the threshold."""
        if self.total_addresses == 0:
            return 0.0
        return 100.0 * self.filtered_addresses / self.total_addresses


@dataclass
class PrefixGeolocation:
    """The outcome of geolocating one announced-prefix set."""

    threshold: float
    #: prefix -> assigned country (consensus reached)
    country_of: dict[Prefix, str]
    #: prefixes owning addresses but failing the majority threshold
    no_consensus: set[Prefix]
    #: prefixes entirely covered by more specifics (own no addresses)
    covered: set[Prefix]
    #: addresses each surviving prefix actually owns (its blocks)
    owned_addresses: dict[Prefix, int]
    #: plurality countries per surviving prefix (all countries tied at
    #: the maximum share; a singleton for any accepted prefix)
    plurality_of: dict[Prefix, tuple[str, ...]] = field(default_factory=dict)

    def country(self, prefix: Prefix) -> str | None:
        """The assigned country, or ``None`` when filtered/unknown."""
        return self.country_of.get(prefix)

    def accepted(self) -> list[Prefix]:
        """Prefixes with an assigned country, sorted."""
        return sorted(self.country_of, key=Prefix.sort_key)

    def addresses_by_country(self) -> dict[str, int]:
        """Total owned addresses per assigned country (the denominator
        of the paper's per-country percentages)."""
        totals: dict[str, int] = {}
        for prefix, country in self.country_of.items():
            totals[country] = totals.get(country, 0) + self.owned_addresses[prefix]
        return totals

    def prefixes_of_country(self, code: str) -> list[Prefix]:
        """Assigned prefixes of one country, sorted."""
        return sorted(
            (p for p, c in self.country_of.items() if c == code),
            key=Prefix.sort_key,
        )

    def stats_by_country(self) -> dict[str, GeolocationStats]:
        """Tables 13–14: per-country share of prefixes/addresses filtered.

        A filtered prefix is attributed to its plurality country (the
        country that held the largest share of its addresses).
        """
        totals: dict[str, list[int]] = {}
        for prefix in list(self.country_of) + sorted(
            self.no_consensus, key=Prefix.sort_key
        ):
            assigned = self.country_of.get(prefix)
            countries = (
                (assigned,) if assigned is not None
                else self.plurality_of.get(prefix, ())
            )
            addresses = self.owned_addresses.get(prefix, 0)
            for country in countries:
                entry = totals.setdefault(country, [0, 0, 0, 0])
                entry[0] += 1
                entry[2] += addresses
                if prefix in self.no_consensus:
                    entry[1] += 1
                    entry[3] += addresses
        return {
            country: GeolocationStats(country, *entry)
            for country, entry in sorted(totals.items())
        }


def geolocate_prefixes(
    prefixes: Iterable[Prefix],
    database: GeoDatabase,
    threshold: float = 0.5,
    version: int = 4,
    tracer=NULL_TRACER,
) -> PrefixGeolocation:
    """Run the full §3.2.1 pipeline over an announced-prefix set.

    ``tracer`` wraps the pass in a ``geolocate`` span and mirrors the
    outcome into ``geo.prefixes.accepted`` / ``geo.prefixes.covered`` /
    ``geo.prefixes.no_consensus`` counters and the
    ``geo.addresses.owned`` gauge.
    """
    with tracer.span("geolocate", threshold=threshold) as span:
        outcome = address_table(prefixes, database, version).decide(threshold)
        span.set(
            input=len(outcome.country_of) + len(outcome.no_consensus)
            + len(outcome.covered),
            output=len(outcome.country_of),
        )
        metrics = tracer.metrics
        metrics.counter("geo.prefixes.accepted").inc(len(outcome.country_of))
        metrics.counter("geo.prefixes.covered").inc(len(outcome.covered))
        metrics.counter("geo.prefixes.no_consensus").inc(
            len(outcome.no_consensus)
        )
        metrics.gauge("geo.addresses.owned").set(
            sum(outcome.owned_addresses.values())
        )
    return outcome


class AddressTable(NamedTuple):
    """Each announced prefix's owned addresses by database country,
    reduced to what the §3.2.1 vote reads; every field in sorted-prefix
    order."""

    #: announced prefixes entirely covered by more specifics
    covered: tuple[Prefix, ...]
    #: announced prefixes owning addresses
    owners: tuple[Prefix, ...]
    #: addresses each owner owns
    owned: tuple[int, ...]
    #: each owner's addresses in its largest country (0 when none)
    best: tuple[int, ...]
    #: the countries tied at ``best`` per owner, sorted
    plurality: tuple[tuple[str, ...], ...]

    def decide(self, threshold: float = 0.5) -> PrefixGeolocation:
        """Step 4: accept a prefix whose single top country holds more
        than ``threshold`` of its owned addresses."""
        if not 0.0 <= threshold < 1.0:
            raise ValueError(f"threshold out of range: {threshold}")
        country_of: dict[Prefix, str] = {}
        no_consensus: set[Prefix] = set()
        for prefix, total, best, tied in zip(
            self.owners, self.owned, self.best, self.plurality
        ):
            if len(tied) == 1 and best / total > threshold:
                country_of[prefix] = tied[0]
            else:
                no_consensus.add(prefix)
        return PrefixGeolocation(
            threshold=threshold,
            country_of=country_of,
            no_consensus=no_consensus,
            covered=set(self.covered),
            owned_addresses=dict(zip(self.owners, self.owned)),
            plurality_of=dict(zip(self.owners, self.plurality)),
        )


def address_table(
    prefixes: Iterable[Prefix], database: GeoDatabase, version: int = 4
) -> AddressTable:
    """Steps 1–3 of §3.2.1 over the ``version`` prefixes of an
    announced set, as interval passes with exact integer counts."""
    unique = sorted(
        {p for p in prefixes if p.version == version}, key=Prefix.sort_key
    )
    bits = Prefix(version, 0, 0).bits()
    if database.version != version:
        database = GeoDatabase(version)  # no entry of this family
    geo, countries = database.painted()
    lengths = np.array([p.length for p in unique], dtype=np.int64)
    width = max(geo.width, int(lengths.max(initial=0)))
    announced = IntervalMap.paint(
        offsets([p.value for p in unique], bits, width), lengths,
        np.arange(len(unique), dtype=np.int64), width,
    )
    owner, country, size = announced.overlay(geo.rescaled(width))
    mine = owner >= 0
    owner, country, size = owner[mine], country[mine], size[mine]
    total = np.zeros(len(unique), dtype=size.dtype)
    np.add.at(total, owner, size)
    # Units per (owner, country), then each owner's largest count and
    # the countries tied at it (ascending codes are sorted names).
    located = country >= 0
    span = max(len(countries), 1)
    pairs, inverse = np.unique(
        owner[located] * span + country[located], return_inverse=True
    )
    count = np.zeros(len(pairs), dtype=size.dtype)
    np.add.at(count, inverse, size[located])
    pair_owner, pair_country = np.divmod(pairs, span)
    best = np.zeros(len(unique), dtype=size.dtype)
    np.maximum.at(best, pair_owner, count)
    top = count == best[pair_owner]
    tied: dict[int, list[str]] = {}
    for index, code in zip(pair_owner[top].tolist(), pair_country[top].tolist()):
        tied.setdefault(index, []).append(countries[code])
    shift = bits - width
    covered, owners, owned, bests, plurality = [], [], [], [], []
    for index, (prefix, units, top_units) in enumerate(
        zip(unique, total.tolist(), best.tolist())
    ):
        if not units:
            covered.append(prefix)
            continue
        owners.append(prefix)
        owned.append(units << shift)
        bests.append(top_units << shift)
        plurality.append(tuple(tied.get(index, ())))
    return AddressTable(
        tuple(covered), tuple(owners), tuple(owned), tuple(bests),
        tuple(plurality),
    )
