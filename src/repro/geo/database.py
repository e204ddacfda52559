"""A synthetic per-address geolocation database (the NetAcuity stand-in).

The paper relies on a commercial service to geolocate end-host
addresses at country granularity (§3.2.1). Our database is derived from
the simulated world's ground-truth originations, deliberately degraded
the way real databases are:

* cross-border prefixes: a configured share of a prefix's addresses
  geolocates to a partner country (from the origination record);
* noise: a small fraction of sub-blocks is assigned to a wrong country;
* misses: a small fraction of sub-blocks has no entry at all.

Entries are kept as columns in insertion order (network, length,
country), and every query reads one memoised painted map
(:class:`~repro.geo.intervals.IntervalMap`): the entries laid down
shortest first, so the most specific entry owns each address and a
re-assigned block keeps its last value. :meth:`lookup` bisects the
map; :meth:`country_shares` clips it to the queried prefix and sums
exact integer address counts per country — the operation the
50 %-threshold prefix geolocation needs.
"""

from __future__ import annotations

import random
import zlib
from typing import Mapping

import numpy as np

from repro.geo.intervals import IntervalMap, offsets
from repro.net.prefix import Prefix, PrefixError
from repro.topology.world import World

#: Sub-block granularity: each prefix is split into 2**_SPLIT_BITS
#: equal chunks when assigning shares/noise (16 chunks → 6.25 % steps).
_SPLIT_BITS = 4


class GeoDatabase:
    """Country-of-address lookups over a painted interval map."""

    def __init__(self, version: int = 4) -> None:
        self._version = version
        self._bits = Prefix(version, 0, 0).bits()
        self._networks: list[int] = []
        self._lengths: list[int] = []
        self._countries: list[str | None] = []
        self._painted: tuple[IntervalMap, tuple[str, ...]] | None = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_world(
        cls,
        world: World,
        noise_rate: float = 0.02,
        miss_rate: float = 0.005,
        seed: int = 0,
        version: int = 4,
    ) -> "GeoDatabase":
        """Derive a noisy database from a world's ground truth.

        ``noise_rate``: probability (per origination) that one sub-block
        is assigned to a random wrong country. ``miss_rate``:
        probability that one sub-block is left out of the database
        entirely (geolocates to nowhere).
        """
        if not 0.0 <= noise_rate <= 1.0 or not 0.0 <= miss_rate <= 1.0:
            raise ValueError("noise_rate/miss_rate must be within [0, 1]")
        db = cls(version)
        bits = db._bits
        all_codes = world.countries.codes()

        def uniform(kind: str, key: str) -> float:
            digest = zlib.crc32(f"{seed}:{kind}:{key}".encode())
            return (digest & 0xFFFFFFFF) / 4294967296.0

        def rng_of(key: str) -> random.Random:
            return random.Random(zlib.crc32(f"{seed}:rng:{key}".encode()))
        # Sort by (prefix, country) so equal seeds give equal databases.
        records = sorted(
            ((record.prefix, record) for _, record in world.graph.originations()),
            key=lambda item: item[0].sort_key(),
        )
        seen: set[Prefix] = set()
        for prefix, record in records:
            if prefix in seen or prefix.version != version:
                continue
            seen.add(prefix)
            network = prefix.value
            db._put(network, prefix.length, record.country)
            # The prefix's chunks: 2**_SPLIT_BITS equal subnets (none
            # for a host prefix), chunk i starting at network + i*step.
            split_to = min(prefix.length + _SPLIT_BITS, bits)
            chunks = (1 << (split_to - prefix.length)) if split_to > prefix.length else 0
            step = 1 << (bits - split_to)
            foreign = 0
            if record.foreign_share > 0 and record.foreign_country and chunks:
                foreign = max(1, round(record.foreign_share * chunks))
                for index in range(foreign):
                    db._put(network + index * step, split_to, record.foreign_country)
            # Hash-stable per-prefix noise: editing one AS elsewhere in
            # the world never moves another prefix's noise.
            free = list(range(foreign, chunks))
            key = str(prefix)
            if free and uniform("noise", key) < noise_rate:
                rng = rng_of(key)
                index = free.pop(rng.randrange(len(free)))
                wrong = rng.choice([c for c in all_codes if c != record.country])
                db._put(network + index * step, split_to, wrong)
            if free and uniform("miss", key) < miss_rate:
                rng = rng_of("miss:" + key)
                index = free.pop(rng.randrange(len(free)))
                db._put(network + index * step, split_to, None)
        return db

    def assign(self, prefix: Prefix, country: str) -> None:
        """Map a geo-block to a country (most-specific wins on lookup)."""
        self._check(prefix)
        self._put(prefix.value, prefix.length, country)

    def unassign(self, prefix: Prefix) -> None:
        """Mark a geo-block as having no location (database miss)."""
        self._check(prefix)
        self._put(prefix.value, prefix.length, None)

    def _check(self, prefix: Prefix) -> None:
        if prefix.version != self._version:
            raise PrefixError(
                f"v{prefix.version} prefix in v{self._version} database: {prefix}"
            )

    def _put(self, network: int, length: int, country: str | None) -> None:
        self._networks.append(network)
        self._lengths.append(length)
        self._countries.append(country)
        self._painted = None

    # -- the painted map -------------------------------------------------------

    @property
    def version(self) -> int:
        """The address family this database holds (4 or 6)."""
        return self._version

    def painted(self) -> tuple[IntervalMap, tuple[str, ...]]:
        """Every entry as one interval map, memoised until the next
        ``assign``/``unassign``: values index the sorted country tuple,
        ``-1`` is no country (a gap or a miss)."""
        if self._painted is None:
            self._painted = self._paint()
        return self._painted

    def _paint(self) -> tuple[IntervalMap, tuple[str, ...]]:
        width = max(self._lengths, default=0)
        starts = offsets(self._networks, self._bits, width)
        lengths = np.array(self._lengths, dtype=np.int64)
        countries = tuple(sorted({c for c in self._countries if c is not None}))
        code = {country: index for index, country in enumerate(countries)}
        values = np.array(
            [code.get(country, -1) for country in self._countries], dtype=np.int64
        )
        # The last insertion wins for an equal (network, length): keep
        # the last row of each run in (length, network, insertion) order.
        order = np.lexsort((np.arange(len(lengths)), starts, lengths))
        ordered_starts, ordered_lengths = starts[order], lengths[order]
        last = np.ones(len(order), dtype=bool)
        last[:-1] = (ordered_starts[1:] != ordered_starts[:-1]) | (
            ordered_lengths[1:] != ordered_lengths[:-1]
        )
        rows = order[last]
        geo = IntervalMap.paint(starts[rows], lengths[rows], values[rows], width)
        return geo, countries

    # -- queries ---------------------------------------------------------------

    def lookup(self, version: int, value: int) -> str | None:
        """Country of one integer address, or ``None`` when unknown."""
        if version != self._version:
            return None
        if not 0 <= value < 1 << self._bits:
            raise PrefixError(f"address value out of range for v{version}: {value}")
        geo, countries = self.painted()
        code = geo.at(value >> (self._bits - geo.width))
        return countries[code] if code >= 0 else None

    def lookup_text(self, address: str) -> str | None:
        """Country of a textual address."""
        from repro.net.prefix import parse_address

        version, value = parse_address(address)
        return self.lookup(version, value)

    def country_shares(self, prefix: Prefix) -> Mapping[str | None, float]:
        """Fraction of the prefix's addresses per country.

        The ``None`` key collects addresses with no database entry.
        Exact (not sampled): sums the painted map's address counts over
        the queried prefix, keyed in address order of first appearance.
        """
        if prefix.version != self._version:
            return {None: 1.0}
        geo, countries = self.painted()
        # A prefix finer than the map's unit lies inside one segment.
        lo = prefix.value >> (self._bits - geo.width)
        hi = lo + (1 << max(geo.width - prefix.length, 0))
        totals: dict[str | None, int] = {}
        for code, size in zip(*geo.clip(lo, hi)):
            key = countries[code] if code >= 0 else None
            totals[key] = totals.get(key, 0) + size
        whole = hi - lo
        return {country: count / whole for country, count in totals.items()}

    def majority_country(
        self, prefix: Prefix, threshold: float = 0.5
    ) -> str | None:
        """The country holding a strict-majority (> threshold) share."""
        shares = self.country_shares(prefix)
        best_country, best_share = None, 0.0
        for country, share in shares.items():
            if country is not None and share > best_share:
                best_country, best_share = country, share
        if best_country is not None and best_share > threshold:
            return best_country
        return None

    def __len__(self) -> int:
        """Distinct (network, length) entries."""
        return len(set(zip(self._networks, self._lengths)))
