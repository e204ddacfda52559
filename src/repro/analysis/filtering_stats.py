"""Geolocation filtering statistics (paper Tables 13–14, Figures 8–9).

Appendix B quantifies how much the 50 %-majority threshold costs each
country (almost nothing for the case studies, up to ~18 % of addresses
for the worst-split countries), how that changes as the threshold
moves (Figure 8), and what the filtered prefixes look like (Figure 9:
85 % dropped as covered-by-more-specifics, 15 % for lack of consensus).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geo.database import GeoDatabase
from repro.geo.prefix_geo import GeolocationStats, PrefixGeolocation, address_table
from repro.net.prefix import Prefix


def filtering_table(
    geolocation: PrefixGeolocation,
    case_studies: tuple[str, ...] = ("RU", "TW", "UA", "US", "AU", "JP"),
    worst: int = 4,
    by_addresses: bool = False,
) -> list[GeolocationStats]:
    """Tables 13–14: the case-study countries plus the worst-filtered.

    ``by_addresses`` selects Table 14's ordering (address percentage)
    instead of Table 13's (prefix percentage).
    """
    stats = geolocation.stats_by_country()
    rows: list[GeolocationStats] = [
        stats[code] for code in case_studies if code in stats
    ]

    def key(stat: GeolocationStats) -> float:
        return (
            stat.pct_addresses_filtered if by_addresses
            else stat.pct_prefixes_filtered
        )

    remaining = sorted(
        (s for code, s in stats.items() if code not in case_studies),
        key=key,
        reverse=True,
    )
    rows.extend(remaining[:worst])
    return rows


def render_filtering_table(rows: list[GeolocationStats], by_addresses: bool) -> str:
    """Printable Table 13/14 lookalike."""
    what = "addresses" if by_addresses else "prefixes"
    lines = [f"== % of each country's {what} filtered by the majority threshold ==",
             f"{'country':<8}{'filtered':>10}{'total':>10}{'pct':>8}"]
    for stat in rows:
        if by_addresses:
            filtered, total, pct = (
                stat.filtered_addresses, stat.total_addresses,
                stat.pct_addresses_filtered,
            )
        else:
            filtered, total, pct = (
                stat.filtered_prefixes, stat.total_prefixes,
                stat.pct_prefixes_filtered,
            )
        lines.append(f"{stat.country:<8}{filtered:>10}{total:>10}{pct:>7.1f}%")
    return "\n".join(lines)


@dataclass(frozen=True, slots=True)
class ThresholdPoint:
    """Figure-8 data for one threshold value."""

    threshold: float
    #: country -> fraction of its prefixes that geolocated successfully
    assigned_fraction: dict[str, float]

    def countries_in_band(self, low: float, high: float) -> int:
        """How many countries have an assigned fraction in (low, high]."""
        return sum(
            1 for value in self.assigned_fraction.values() if low < value <= high
        )


def threshold_sweep(
    prefixes: list[Prefix],
    database: GeoDatabase,
    thresholds: tuple[float, ...] = (0.05, 0.15, 0.25, 0.35, 0.45, 0.5,
                                     0.55, 0.65, 0.75, 0.85, 0.95),
) -> list[ThresholdPoint]:
    """Figure 8: per-country assignment success across thresholds.

    The (prefix, country) address table is built once; each threshold
    only reruns the vote over it."""
    table = address_table(prefixes, database)
    points = []
    for threshold in thresholds:
        outcome = table.decide(threshold)
        stats = outcome.stats_by_country()
        fractions = {
            code: 1.0 - stat.pct_prefixes_filtered / 100.0
            for code, stat in stats.items()
        }
        points.append(ThresholdPoint(threshold, fractions))
    return points


def filtered_length_distribution(
    geolocation: PrefixGeolocation,
) -> dict[int, dict[str, int]]:
    """Figure 9: prefix-length histogram of filtered prefixes, split by
    reason (``covered`` vs ``no_consensus``)."""
    histogram: dict[int, dict[str, int]] = {}
    for prefix in geolocation.covered:
        bucket = histogram.setdefault(prefix.length, {"covered": 0, "no_consensus": 0})
        bucket["covered"] += 1
    for prefix in geolocation.no_consensus:
        bucket = histogram.setdefault(prefix.length, {"covered": 0, "no_consensus": 0})
        bucket["no_consensus"] += 1
    return dict(sorted(histogram.items()))
