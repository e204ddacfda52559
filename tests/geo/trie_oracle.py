"""The trie-based §3.2.1 pass: the test oracle for the interval pass
in ``repro.geo``.

:class:`TrieGeoDatabase` stores geo-blocks in a radix trie and
integrates one prefix's country shares by building a small trie per
query; :func:`trie_geolocate` splits the announced prefixes into owned
CIDR blocks (:func:`tests.oracles.prefixes.split_into_blocks`) and sums each
block's shares weighted by its size. Both walk tries block by block, a
different algorithm from painted intervals, so an equal answer is an
independent check.
"""

from __future__ import annotations

import random
import zlib
from typing import Iterable, Mapping

from repro.geo.prefix_geo import PrefixGeolocation
from repro.net.prefix import Prefix
from repro.topology.world import World

from tests.oracles.prefixes import Block, PrefixTrie, split_into_blocks

#: each origination is split into 2**_SPLIT_BITS chunks for shares/noise
_SPLIT_BITS = 4

#: sentinel stored for deliberate database misses
_NOWHERE = "\x00nowhere"


class TrieGeoDatabase:
    """Country-of-address lookups over a trie of geo-blocks."""

    def __init__(self, version: int = 4) -> None:
        self._trie: PrefixTrie[str] = PrefixTrie(version)
        self._version = version

    @classmethod
    def from_world(
        cls, world: World, noise_rate: float = 0.02, miss_rate: float = 0.005,
        seed: int = 0, version: int = 4,
    ) -> "TrieGeoDatabase":
        """``GeoDatabase.from_world`` over chunk prefixes and a trie."""
        db = cls(version)
        all_codes = world.countries.codes()

        def uniform(kind: str, key: str) -> float:
            digest = zlib.crc32(f"{seed}:{kind}:{key}".encode())
            return (digest & 0xFFFFFFFF) / 4294967296.0

        def rng_of(key: str) -> random.Random:
            return random.Random(zlib.crc32(f"{seed}:rng:{key}".encode()))
        records = sorted(
            ((record.prefix, record) for _, record in world.graph.originations()),
            key=lambda item: item[0].sort_key(),
        )
        seen: set[Prefix] = set()
        for prefix, record in records:
            if prefix in seen or prefix.version != db._version:
                continue
            seen.add(prefix)
            db.assign(prefix, record.country)
            chunks = db._chunks(prefix)
            used: set[int] = set()
            if record.foreign_share > 0 and record.foreign_country and chunks:
                count = max(1, round(record.foreign_share * len(chunks)))
                for index in range(count):
                    db.assign(chunks[index], record.foreign_country)
                    used.add(index)
            free = [i for i in range(len(chunks)) if i not in used]
            key = str(prefix)
            if free and uniform("noise", key) < noise_rate:
                rng = rng_of(key)
                index = free.pop(rng.randrange(len(free)))
                wrong = rng.choice([c for c in all_codes if c != record.country])
                db.assign(chunks[index], wrong)
            if free and uniform("miss", key) < miss_rate:
                rng = rng_of("miss:" + key)
                index = free.pop(rng.randrange(len(free)))
                db.unassign(chunks[index])
        return db

    def assign(self, prefix: Prefix, country: str) -> None:
        self._trie.insert(prefix, country)

    def unassign(self, prefix: Prefix) -> None:
        self._trie.insert(prefix, _NOWHERE)

    @staticmethod
    def _chunks(prefix: Prefix) -> list[Prefix]:
        split_to = min(prefix.length + _SPLIT_BITS, prefix.bits())
        if split_to == prefix.length:
            return []
        return prefix.subnets(split_to)

    def lookup(self, version: int, value: int) -> str | None:
        hit = self._trie.lookup_address(version, value)
        if hit is None or hit[1] is _NOWHERE:
            return None
        return hit[1]

    def country_shares(self, prefix: Prefix) -> Mapping[str | None, float]:
        if prefix.version != self._version:
            return {None: 1.0}
        mini: PrefixTrie[str] = PrefixTrie(self._version)
        cover = self._trie.longest_match(prefix)
        base = cover[1] if cover is not None else _NOWHERE
        mini.insert(prefix, base)
        for stored, country in self._trie.subtree(prefix):
            if stored != prefix:
                mini.insert(stored, country)
        totals: dict[str | None, int] = {}
        for block, _ in mini.decompose():
            hit = mini.longest_match(block)
            assert hit is not None
            country = hit[1]
            key = None if country is _NOWHERE else country
            totals[key] = totals.get(key, 0) + block.num_addresses()
        whole = prefix.num_addresses()
        return {country: count / whole for country, count in totals.items()}

    def majority_country(self, prefix: Prefix, threshold: float = 0.5) -> str | None:
        shares = self.country_shares(prefix)
        best_country, best_share = None, 0.0
        for country, share in shares.items():
            if country is not None and share > best_share:
                best_country, best_share = country, share
        if best_country is not None and best_share > threshold:
            return best_country
        return None

    def __len__(self) -> int:
        return len(self._trie)


def trie_geolocate(
    prefixes: Iterable[Prefix], database: TrieGeoDatabase,
    threshold: float = 0.5, version: int = 4,
) -> PrefixGeolocation:
    """``geolocate_prefixes`` as a loop over owned CIDR blocks."""
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"threshold out of range: {threshold}")
    unique = sorted(
        {p for p in prefixes if p.version == version}, key=Prefix.sort_key
    )
    owned: dict[Prefix, list[Block]] = {}
    for block in split_into_blocks(unique, version):
        owned.setdefault(block.owner, []).append(block)

    covered = {prefix for prefix in unique if prefix not in owned}
    country_of: dict[Prefix, str] = {}
    no_consensus: set[Prefix] = set()
    owned_addresses: dict[Prefix, int] = {}
    plurality_of: dict[Prefix, tuple[str, ...]] = {}
    for prefix in unique:
        blocks_here = owned.get(prefix)
        if not blocks_here:
            continue
        total = sum(b.num_addresses() for b in blocks_here)
        owned_addresses[prefix] = total
        shares: dict[str | None, float] = {}
        for block in blocks_here:
            weight = block.num_addresses()
            for country, share in database.country_shares(block.prefix).items():
                shares[country] = shares.get(country, 0.0) + share * weight
        best_weight = max(
            (weight for country, weight in shares.items() if country is not None),
            default=0.0,
        )
        tied = tuple(sorted(
            country
            for country, weight in shares.items()
            if country is not None and weight >= best_weight - 1e-9
        ))
        plurality_of[prefix] = tied
        if len(tied) == 1 and best_weight / total > threshold:
            country_of[prefix] = tied[0]
        else:
            no_consensus.add(prefix)
    return PrefixGeolocation(
        threshold=threshold,
        country_of=country_of,
        no_consensus=no_consensus,
        covered=covered,
        owned_addresses=owned_addresses,
        plurality_of=plurality_of,
    )
