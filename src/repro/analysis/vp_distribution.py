"""Vantage-point census and concentration (paper Tables 3–4, Figure 10).

Table 3/4 count located in-country VPs (the national views are only as
good as these); Figure 10 checks whether VPs pile up inside a few ASes,
which would bias per-VP metrics — the paper found 81 % of VP ASes host
a single VP.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pipeline import PipelineResult
from repro.net.aspath import sorted_distinct


@dataclass(frozen=True, slots=True)
class CountryVPStats:
    """One Table-4 row."""

    country: str
    vp_ips: int
    vp_asns: int
    asns: int
    prefixes: int
    addresses: int


def vp_census(result: PipelineResult, min_vps: int = 1) -> list[CountryVPStats]:
    """Table 4: per-country VP counts plus destination-side footprint.

    ``asns``/``prefixes``/``addresses`` count the ASes originating
    accepted prefixes geolocated to the country, those prefixes, and
    their owned addresses. Sorted by VP IPs descending.
    """
    vp_ips: dict[str, set[str]] = {}
    vp_asns: dict[str, set[int]] = {}
    for vp in result.vp_geo.located():
        country = result.vp_geo.country(vp)
        assert country is not None
        vp_ips.setdefault(country, set()).add(vp.ip)
        vp_asns.setdefault(country, set()).add(vp.asn)

    # the distinct (prefix id, origin) pairs, read from the store's id
    # columns: a prefix id fits 31 bits and an origin ASN 32
    store = result.paths.store()
    pairs = sorted_distinct((store.record_prefix << 32) | store.record_origin)
    table = store.prefix_table
    origins: dict[str, set[int]] = {}
    prefixes: dict[str, set] = {}
    for fid, origin in zip((pairs >> 32).tolist(), (pairs & 0xFFFFFFFF).tolist()):
        prefix, country, _ = table[fid]
        origins.setdefault(country, set()).add(origin)
        prefixes.setdefault(country, set()).add(prefix)
    addresses = result.country_addresses()

    rows = []
    for country, ips in vp_ips.items():
        if len(ips) < min_vps:
            continue
        rows.append(
            CountryVPStats(
                country=country,
                vp_ips=len(ips),
                vp_asns=len(vp_asns.get(country, ())),
                asns=len(origins.get(country, ())),
                prefixes=len(prefixes.get(country, ())),
                addresses=addresses.get(country, 0),
            )
        )
    rows.sort(key=lambda row: (-row.vp_ips, row.country))
    return rows


def top_vp_countries(result: PipelineResult, k: int = 5) -> list[CountryVPStats]:
    """Table 3: the countries with the most located in-country VPs."""
    return vp_census(result)[:k]


def render_census(rows: list[CountryVPStats]) -> str:
    """Printable Table 3/4 lookalike."""
    lines = ["== In-country vantage points ==",
             f"{'country':<8}{'VP IPs':>8}{'VP ASNs':>9}{'ASNs':>7}"
             f"{'prefixes':>10}{'addresses':>12}"]
    for row in rows:
        lines.append(
            f"{row.country:<8}{row.vp_ips:>8}{row.vp_asns:>9}{row.asns:>7}"
            f"{row.prefixes:>10}{row.addresses:>12}"
        )
    return "\n".join(lines)


def vp_concentration(result: PipelineResult) -> dict[str, dict[int, int]]:
    """Figure 10: per country, ``VPs-per-AS -> number of ASes``.

    The ``"*"`` key aggregates across all countries. A healthy
    distribution has almost all mass at 1 VP per AS.
    """
    per_country_as: dict[str, dict[int, int]] = {}
    for vp in result.vp_geo.located():
        country = result.vp_geo.country(vp)
        assert country is not None
        bucket = per_country_as.setdefault(country, {})
        bucket[vp.asn] = bucket.get(vp.asn, 0) + 1
    histogram: dict[str, dict[int, int]] = {"*": {}}
    for country, by_as in sorted(per_country_as.items()):
        country_hist: dict[int, int] = {}
        for count in by_as.values():
            country_hist[count] = country_hist.get(count, 0) + 1
            histogram["*"][count] = histogram["*"].get(count, 0) + 1
        histogram[country] = dict(sorted(country_hist.items()))
    histogram["*"] = dict(sorted(histogram["*"].items()))
    return histogram


def single_vp_share(result: PipelineResult) -> float:
    """Fraction of VP ASes hosting exactly one VP (paper: 81 %)."""
    histogram = vp_concentration(result)["*"]
    total = sum(histogram.values())
    if total == 0:
        return 0.0
    return histogram.get(1, 0) / total
