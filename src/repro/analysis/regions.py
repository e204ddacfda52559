"""Regional dominance analyses (paper Table 12 and Figure 7).

Table 12 asks, per *serving* country: in how many destination countries
does some AS registered there hold an international hegemony (AHI)
above 0.1, broken down by the destination's continent — revealing that
U.S. carriers serve most of the world while Telstra serves Oceania,
Orange/Liquid/MTN serve Africa, and Russian carriers serve Central
Asia. Figure 7 is the Russian special case over former-Soviet states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.pipeline import PipelineResult
from repro.topology.countries import CONTINENTS


@dataclass
class DominanceRow:
    """Table-12 row: one serving country's reach."""

    serving_country: str
    #: continent -> number of destination countries served (AHI > thr)
    by_continent: dict[str, int] = field(default_factory=dict)
    #: destination country codes served
    served: set[str] = field(default_factory=set)
    #: (asn, countries served) for the AS serving the most countries
    top_as: tuple[int, int] | None = None

    def total(self) -> int:
        """Destination countries served on any continent."""
        return len(self.served)


def destination_countries(result: PipelineResult, min_records: int = 5) -> list[str]:
    """Countries with enough observed inbound paths to evaluate."""
    store = result.paths.store()
    table = store.prefix_table
    counts: dict[str, int] = {}
    per_prefix = np.bincount(store.record_prefix, minlength=len(table))
    for (_, country, _), n in zip(table, per_prefix.tolist()):
        counts[country] = counts.get(country, 0) + n
    return sorted(code for code, n in counts.items() if n >= min_records)


def continental_dominance(
    result: PipelineResult,
    threshold: float = 0.1,
    destinations: list[str] | None = None,
) -> list[DominanceRow]:
    """Table 12: serving countries ranked by how many destinations rely
    on their ASes for international connectivity."""
    if destinations is None:
        destinations = destination_countries(result)
    graph = result.world.graph
    countries = result.world.countries
    rows: dict[str, DominanceRow] = {}
    per_as_served: dict[int, set[str]] = {}
    for destination in destinations:
        ahi = result.ranking("AHI", destination)
        continent = countries.get(destination).continent
        seen_serving: set[str] = set()
        for entry in ahi.entries:
            if entry.value <= threshold:
                break  # entries sorted descending
            node = graph.maybe_node(entry.asn)
            if node is None:
                continue
            serving = node.registry_country
            if serving == destination:
                # Table 12 counts *international* reliance: skip the
                # destination's own ASes except for the self column the
                # paper also includes — we include self-service too.
                pass
            per_as_served.setdefault(entry.asn, set()).add(destination)
            if serving in seen_serving:
                continue
            seen_serving.add(serving)
            row = rows.setdefault(serving, DominanceRow(serving))
            row.served.add(destination)
            row.by_continent[continent] = row.by_continent.get(continent, 0) + 1
    # Top AS per serving country = the one exceeding the threshold in
    # the most destinations.
    for serving, row in rows.items():
        best: tuple[int, int] | None = None
        for asn, served in per_as_served.items():
            node = graph.maybe_node(asn)
            if node is None or node.registry_country != serving:
                continue
            score = (len(served), -asn)
            if best is None or score > (best[1], -best[0]):
                best = (asn, len(served))
        row.top_as = best
    ordered = sorted(rows.values(), key=lambda r: (-r.total(), r.serving_country))
    return ordered


def render_dominance_table(
    rows: list[DominanceRow],
    result: PipelineResult,
    k: int = 12,
) -> str:
    """Printable Table 12 lookalike."""
    short = {"North America": "NoAm", "South America": "SoAm", "Europe": "Eu",
             "Africa": "Af", "Asia": "As", "Oceania": "Oc"}
    header = f"{'serving':<8}"
    for continent in CONTINENTS:
        header += f"{short[continent]:>6}"
    header += f"{'total':>7}  top AS"
    lines = ["== Continental dominance (AHI > 0.1) ==", header]
    for row in rows[:k]:
        line = f"{row.serving_country:<8}"
        for continent in CONTINENTS:
            line += f"{row.by_continent.get(continent, 0):>6}"
        line += f"{row.total():>7}"
        if row.top_as:
            asn, count = row.top_as
            line += f"  {asn} {result.as_name(asn)} ({count})"
        lines.append(line)
    return "\n".join(lines)


def country_hegemony_over(
    result: PipelineResult,
    serving_country: str = "RU",
    destinations: list[str] | None = None,
) -> dict[str, float]:
    """Figure 7: per destination, the highest AHI held by any AS
    registered in ``serving_country``."""
    if destinations is None:
        destinations = destination_countries(result)
    graph = result.world.graph
    out: dict[str, float] = {}
    for destination in destinations:
        ahi = result.ranking("AHI", destination)
        best = 0.0
        for entry in ahi.entries:
            node = graph.maybe_node(entry.asn)
            if node is not None and node.registry_country == serving_country:
                best = max(best, entry.value)
        out[destination] = best
    return dict(sorted(out.items()))
