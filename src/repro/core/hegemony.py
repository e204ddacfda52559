"""AS hegemony metrics: AHG (global) and the country AHI / AHN.

Implementation of Fontugne et al.'s two-step estimator (paper §1.2,
Figure 2):

1. per vantage point, compute every AS's betweenness over that VP's
   paths, weighting each path by the number of addresses of its
   destination prefix — the score is the fraction of address-weighted
   paths containing the AS (origin and VP-side AS included);
2. per AS, discard the highest and lowest ``trim`` fraction of the
   per-VP scores and average the rest, which suppresses VPs that are
   topologically very close to or far from the AS.

A VP that saw the view's prefixes but none of the paths through an AS
contributes a 0 for that AS — those zeros matter, they are exactly what
pulls down ASes visible from only a few VPs.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from repro.core.ranking import Ranking
from repro.core.sanitize import PathRecord
from repro.core.views import View
from repro.obs.trace import NULL_TRACER, AnyTracer

#: path weightings: the paper's address-weighted estimator and the
#: per-prefix (unweighted) ablation
HEGEMONY_WEIGHTINGS = ("addresses", "prefixes")


def check_weighting(weighting: str) -> str:
    """Reject unknown path weightings with one message on every path."""
    if weighting not in HEGEMONY_WEIGHTINGS:
        raise ValueError(f"unknown hegemony weighting {weighting!r}")
    return weighting


def per_vp_scores(
    records: Iterable[PathRecord],
    weighting: str = "addresses",
) -> tuple[dict[str, dict[int, float]], set[int]]:
    """Per-VP weighted betweenness, plus the AS universe.

    ``weighting="addresses"`` is the paper's Figure-2 estimator (paths
    weighted by destination address counts); ``"prefixes"`` counts every
    path once, the unweighted variant used as an ablation.
    """
    check_weighting(weighting)
    weight_on: dict[str, dict[int, float]] = {}
    weight_total: dict[str, float] = {}
    universe: set[int] = set()
    for record in records:
        weight = float(record.addresses) if weighting == "addresses" else 1.0
        if weight <= 0.0:
            continue
        vp_scores = weight_on.setdefault(record.vp.ip, {})
        weight_total[record.vp.ip] = weight_total.get(record.vp.ip, 0.0) + weight
        for asn in record.path.unique_asns():
            vp_scores[asn] = vp_scores.get(asn, 0.0) + weight
            universe.add(asn)
    scores = {
        vp_ip: {
            asn: value / weight_total[vp_ip] for asn, value in vp_scores.items()
        }
        for vp_ip, vp_scores in weight_on.items()
    }
    return scores, universe


def validate_trim(trim: float) -> float:
    """Reject trims outside ``[0.0, 0.5)`` with a uniform message.

    Every ranking entry point — the reference or the columnar kernel,
    cached or not — funnels through this check, so an invalid trim
    fails the same way on every code path instead of being silently
    capped by :func:`trimmed_mean`.
    """
    if not 0.0 <= trim < 0.5:
        raise ValueError(f"trim out of range: {trim}")
    return trim


def trimmed_mean(values: list[float], trim: float) -> float:
    """Mean after dropping ``ceil(trim·n)`` values from each end.

    The trim never eats the whole sample: it is capped at
    ``(n - 1) // 2`` per side, so three values keep their median (the
    paper's Figure 2 example) and a single value is returned as-is.
    """
    n = len(values)
    if n == 0:
        return 0.0
    k = min(math.ceil(trim * n), (n - 1) // 2)
    kept = sorted(values)[k : n - k]
    return sum(kept) / len(kept)


def trimmed_scores(
    per_vp: dict[str, dict[int, float]],
    universe: set[int],
    trim: float,
) -> dict[int, float]:
    """Step 2 of the estimator: per-AS trimmed mean over the per-VP
    betweenness table (a 0 for every VP that missed the AS)."""
    validate_trim(trim)
    vp_ips = sorted(per_vp)
    scores: dict[int, float] = {}
    for asn in universe:
        values = [per_vp[vp_ip].get(asn, 0.0) for vp_ip in vp_ips]
        scores[asn] = trimmed_mean(values, trim)
    return scores


def hegemony_scores(
    records: Iterable[PathRecord],
    trim: float = 0.1,
    weighting: str = "addresses",
) -> dict[int, float]:
    """AS hegemony for every AS observed in the records — the reference
    the columnar kernel (:mod:`repro.perf.hegemony`) is held to."""
    validate_trim(trim)
    per_vp, universe = per_vp_scores(records, weighting)
    return trimmed_scores(per_vp, universe, trim)


def local_hegemony(
    records: Iterable[PathRecord],
    origin: int,
    trim: float = 0.1,
) -> dict[int, float]:
    """Hegemony restricted to paths toward one origin AS's prefixes.

    This is IHR's per-origin "network dependency", the ingredient of
    the AHC baseline (§1.2.1).
    """
    return hegemony_scores(
        (record for record in records if record.origin == origin), trim
    )


def hegemony_ranking(
    view: View,
    metric: str | None = None,
    trim: float = 0.1,
    weighting: str = "addresses",
    tracer: AnyTracer = NULL_TRACER,
) -> Ranking:
    """Rank ASes by hegemony within a view.

    The share column *is* the hegemony value (fraction of observed
    address-weighted paths crossing the AS), matching how the paper's
    case-study tables report AH percentages.

    The table comes from the view's
    :meth:`~repro.core.views.View.computation` — the columnar kernel,
    memoised per (trim, weighting), equal to :func:`hegemony_scores`
    over the view's records.
    """
    validate_trim(trim)
    if metric is None:
        metric = "AH" if view.country is None else f"AH:{view.country}"
    with tracer.span(
        "hegemony", metric=metric, trim=trim, input=len(view),
    ) as span:
        scores = view.computation(tracer).hegemony(trim, weighting)
        span.set(output=len(scores))
        tracer.metrics.histogram("hegemony.universe").observe(len(scores))
        shares: Mapping[int, float] = scores
        return Ranking.from_scores(metric, scores, shares, view.country)
