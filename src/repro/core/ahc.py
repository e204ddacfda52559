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
"""

from __future__ import annotations

from typing import Callable, Container, Iterable, Mapping, Sequence

from repro.core.hegemony import hegemony_scores, validate_trim
from repro.core.ranking import Ranking
from repro.core.sanitize import PathRecord
from repro.core.views import View
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
    """Each contributing origin's weight, shared by the reference and
    the ranking: 1.0 per ``observed`` origin (``as_count``), or its observed
    address ``footprint`` (``addresses``, where a zero footprint drops
    the origin).

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


def _weighted_origin_average(
    origins: Sequence[int],
    weights: Mapping[int, float],
    hegemony_of: Callable[[int], Mapping[int, float]],
) -> dict[int, float]:
    """The AHC step 2 shared by the reference and the ranking: a
    weighted average of per-origin hegemony tables, accumulated in
    sorted-origin order (so both produce bit-identical floats)."""
    totals: dict[int, float] = {}
    weight_sum = 0.0
    contributing = 0
    for origin in origins:
        weight = weights.get(origin)
        if weight is None:
            continue
        weight_sum += weight
        contributing += 1
        for asn, value in hegemony_of(origin).items():
            totals[asn] = totals.get(asn, 0.0) + weight * value
    if contributing == 0:
        # exact-integer accounting: no origin contributed, so there is
        # nothing to average (weight_sum is untouched — never compared)
        return {}
    return {asn: value / weight_sum for asn, value in totals.items()}


def ahc_scores(
    records: Iterable[PathRecord],
    country_origins: Iterable[int],
    trim: float = 0.1,
    weighting: str = "as_count",
) -> dict[int, float]:
    """Weighted average of per-origin local hegemony.

    ``country_origins`` are the ASNs registered in the target country.

    ``weighting`` selects IHR's two published schemes (§1.2.1):
    ``"as_count"`` weights every origin AS equally (what the paper
    uses); ``"addresses"`` weights each origin by its observed address
    footprint — our stand-in for IHR's APNIC user-population weights.
    """
    _check_weighting(weighting)
    validate_trim(trim)
    origins = sorted(set(country_origins))
    by_origin: dict[int, list[PathRecord]] = {origin: [] for origin in origins}
    for record in records:
        bucket = by_origin.get(record.origin)
        if bucket is not None:
            bucket.append(record)
    observed = {origin for origin, bucket in by_origin.items() if bucket}
    weights = _origin_weights(
        origins, weighting, observed,
        lambda origin: sum({
            record.prefix: record.addresses for record in by_origin[origin]
        }.values()),
    )
    return _weighted_origin_average(
        origins, weights,
        lambda origin: hegemony_scores(by_origin[origin], trim),
    )


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
    ``perf.view.hit``. Values are bit-identical to :func:`ahc_scores`
    over the view's records: the kernel matches
    :func:`~repro.core.hegemony.hegemony_scores` and the weighting and
    averaging loops are shared. ``metric`` overrides the ranking label
    (variants like ``AHC-A`` pass theirs).
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
        scores = _weighted_origin_average(origins, weights, tables.__getitem__)
        span.set(output=len(scores))
        tracer.metrics.histogram("ahc.origins").observe(len(origins))
        shares: Mapping[int, float] = scores
        return Ranking.from_scores(
            metric if metric is not None else f"AHC:{country}",
            scores, shares, country,
        )
