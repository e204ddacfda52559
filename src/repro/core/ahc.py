"""IHR's country-level hegemony baseline (AHC, paper §1.2.1).

AHC approximates a country ranking by (1) computing per-origin local
hegemony (network dependency) for each AS *registered* in the country —
regardless of where its prefixes geolocate — using paths from **all**
VPs, and (2) averaging those values across the country's origin ASes
with equal weight (the paper uses the AS-count weighting, not APNIC
user weights).

The three differences from the paper's own metrics, reproduced here
exactly so the Table 9 comparison is meaningful:

* destination selection by AS registration country, not by prefix
  geolocation (misses Amazon's in-country prefixes, counts prefixes a
  domestic AS originates abroad);
* no national/international split (all VPs mixed together);
* equal weighting of origin ASes regardless of address footprint.

``tests/oracles/hegemony.py`` spells AHC out record by record, and the
test matrix holds :func:`ahc_ranking` to it.
"""

from __future__ import annotations

from typing import Callable, Container, Iterable, Mapping, Sequence

import numpy as np

from repro.core.hegemony import validate_trim
from repro.core.ranking import Ranking, ScoreColumns, no_scores
from repro.core.views import View
from repro.net.aspath import dense_codes
from repro.obs.trace import NULL_TRACER, AnyTracer

AHC_WEIGHTINGS = ("as_count", "addresses")


def _check_weighting(weighting: str) -> str:
    if weighting not in AHC_WEIGHTINGS:
        raise ValueError(f"unknown AHC weighting {weighting!r}")
    return weighting


def _origin_weights(
    origins: Sequence[int],
    weighting: str,
    observed: Container[int],
    footprint: Callable[[int], int],
) -> dict[int, float]:
    """Each contributing origin's weight: 1.0 per ``observed`` origin
    (``as_count``), or its observed address ``footprint``
    (``addresses``, where a zero footprint drops the origin).

    Origins with no observed paths contribute nothing (and do not
    dilute the average), mirroring IHR's per-AS daily computation.
    """
    weights: dict[int, float] = {}
    for origin in origins:
        if origin not in observed:
            continue
        weight = float(footprint(origin)) if weighting == "addresses" else 1.0
        if weight > 0.0:
            weights[origin] = weight
    return weights


def _column_average(
    origins: Sequence[int],
    weights: Mapping[int, float],
    table_of: Callable[[int], ScoreColumns],
) -> ScoreColumns:
    """AHC step 2 over column tables: the weighted average of the
    contributing origins' tables.

    The contributing origins' columns are concatenated in
    ascending-origin order, each value times its origin's weight, and
    one ``np.bincount`` adds every AS's terms one at a time from 0.0 in
    that order — the definition's running ``total + weight * value``
    sequence per AS. The weight sum is accumulated origin by origin as
    a Python float. Every AS in a contributing table keeps its row, 0.0
    rows included.
    """
    weight_sum = 0.0
    asns, terms = [], []
    for origin in origins:
        weight = weights.get(origin)
        if weight is None:
            continue
        weight_sum += weight
        table = table_of(origin)
        asns.append(table.asns)
        terms.append(weight * table.values)
    if not asns:
        return no_scores()
    distinct, code = dense_codes(np.concatenate(asns))
    totals = np.bincount(
        code, weights=np.concatenate(terms), minlength=len(distinct)
    )
    return ScoreColumns(distinct, totals / weight_sum)


def ahc_ranking(
    view: View,
    country: str,
    country_origins: Iterable[int],
    trim: float = 0.1,
    weighting: str = "as_count",
    tracer: AnyTracer = NULL_TRACER,
    metric: str | None = None,
) -> Ranking:
    """The AHC baseline ranking for one country over ``view`` (the
    global view: paths from every VP).

    The per-origin hegemony tables come from the view's
    :meth:`~repro.core.views.View.computation`: one columnar kernel
    call per country computes every registered origin's table from the
    store's origin column, and every repeated (origin, trim) table is a
    ``perf.view.hit``. ``country_origins`` are the ASNs registered in
    the country; ``weighting`` selects IHR's two published schemes
    (§1.2.1): ``"as_count"`` weights every origin AS equally (what the
    paper uses), ``"addresses"`` weights each origin by its observed
    address footprint — a stand-in for IHR's APNIC user-population
    weights. ``metric`` overrides the ranking label (variants like
    ``AHC-A`` pass theirs).
    """
    _check_weighting(weighting)
    validate_trim(trim)
    origins = sorted(set(country_origins))
    with tracer.span(
        "ahc", country=country, origins=len(origins), input=len(view),
    ) as span:
        compute = view.computation(tracer)
        tables = compute.local_hegemonies(origins, trim)
        footprints = (
            compute.origin_footprints(origins) if weighting == "addresses"
            else {}
        )
        weights = _origin_weights(
            origins, weighting, tables, footprints.__getitem__
        )
        asns, scores = _column_average(origins, weights, tables.__getitem__)
        span.set(output=len(asns))
        tracer.metrics.histogram("ahc.origins").observe(len(origins))
        return Ranking.from_columns(
            metric if metric is not None else f"AHC:{country}",
            asns, scores, scores, country,
        )
