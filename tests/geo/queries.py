"""Point and prefix queries over a :class:`GeoDatabase`'s painted map.

The pipeline geolocates prefixes by overlaying the painted map with the
announced blocks (:mod:`repro.geo.prefix_geo`); these per-query
functions read the same map one address or one prefix at a time, as
the geo tests and the trie oracle's comparisons do.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.geo.database import GeoDatabase
from repro.geo.intervals import IntervalMap
from repro.net.prefix import Prefix, PrefixError, parse_address


def value_at(geo: IntervalMap, offset: int) -> int:
    """The value of the segment holding one unit offset."""
    return int(geo.values[np.searchsorted(geo.bounds, offset, side="right") - 1])


def clip(geo: IntervalMap, lo: int, hi: int) -> tuple[list[int], list[int]]:
    """Values and unit counts of the segments cut to ``[lo, hi)``, in
    address order."""
    first = int(np.searchsorted(geo.bounds, lo, side="right")) - 1
    last = int(np.searchsorted(geo.bounds, hi, side="left"))
    cuts = [lo, *geo.bounds[first + 1:last].tolist(), hi]
    sizes = [b - a for a, b in zip(cuts, cuts[1:])]
    return geo.values[first:last].tolist(), sizes


def lookup(db: GeoDatabase, version: int, value: int) -> str | None:
    """Country of one integer address, or ``None`` when unknown."""
    if version != db.version:
        return None
    bits = Prefix(version, 0, 0).bits()
    if not 0 <= value < 1 << bits:
        raise PrefixError(f"address value out of range for v{version}: {value}")
    geo, countries = db.painted()
    code = value_at(geo, value >> (bits - geo.width))
    return countries[code] if code >= 0 else None


def lookup_text(db: GeoDatabase, address: str) -> str | None:
    """Country of a textual address."""
    return lookup(db, *parse_address(address))


def country_shares(db: GeoDatabase, prefix: Prefix) -> Mapping[str | None, float]:
    """Fraction of the prefix's addresses per country.

    The ``None`` key collects addresses with no database entry. Exact
    (not sampled): sums the painted map's address counts over the
    queried prefix, keyed in address order of first appearance.
    """
    if prefix.version != db.version:
        return {None: 1.0}
    geo, countries = db.painted()
    # A prefix finer than the map's unit lies inside one segment.
    lo = prefix.value >> (prefix.bits() - geo.width)
    hi = lo + (1 << max(geo.width - prefix.length, 0))
    totals: dict[str | None, int] = {}
    for code, size in zip(*clip(geo, lo, hi)):
        key = countries[code] if code >= 0 else None
        totals[key] = totals.get(key, 0) + size
    whole = hi - lo
    return {country: count / whole for country, count in totals.items()}


def majority_country(
    db: GeoDatabase, prefix: Prefix, threshold: float = 0.5
) -> str | None:
    """The country holding a strict-majority (> threshold) share."""
    best_country, best_share = None, 0.0
    for country, share in country_shares(db, prefix).items():
        if country is not None and share > best_share:
            best_country, best_share = country, share
    if best_country is not None and best_share > threshold:
        return best_country
    return None
