"""Gamero-Garrido's Country-level Transit Influence baseline (paper §1.3).

CTI estimates the fraction of a country's address space that depends on
an AS for *international transit*. Per external VP, an AS scores, for
each path from that VP to an in-country prefix where it appears on the
transit (provider→customer) portion, the prefix's addresses scaled by
``1/k`` where ``k`` is the AS's distance from the origin in hops
(origin itself scores 0, its direct provider 1/1, the next 1/2, …).
Scores are normalized by the country's total address space, and the
top/bottom ``trim`` share of per-VP values is dropped before averaging,
as in AH.

The paper's discussion (§1.3) predicts CTI falls between CC and AH for
a given AS: transit-only like CC, path-fraction-flavoured like AH, but
discounting the origin's own large prefixes (AOLP behaviour).
"""

from __future__ import annotations

from typing import Iterable

from repro.core.cone import transit_suffix
from repro.core.hegemony import trimmed_mean, validate_trim
from repro.core.ranking import Ranking
from repro.core.sanitize import PathRecord, RelationshipOracle
from repro.core.views import View
from repro.obs.trace import NULL_TRACER, AnyTracer


def per_vp_transit(
    records: Iterable[PathRecord],
    oracle: RelationshipOracle,
) -> tuple[dict[str, dict[int, float]], set[int]]:
    """Step 1 of CTI: per-VP distance-discounted transit weight."""
    per_vp: dict[str, dict[int, float]] = {}
    universe: set[int] = set()
    for record in records:
        suffix = transit_suffix(record.path, oracle)
        vp_scores = per_vp.setdefault(record.vp.ip, {})
        weight = float(record.addresses)
        length = len(suffix)
        # suffix runs top-provider → … → origin; distance from origin
        # is k = (length - 1 - index); the origin (k = 0) scores 0.
        for index, asn in enumerate(suffix):
            k = length - 1 - index
            if k == 0:
                continue
            vp_scores[asn] = vp_scores.get(asn, 0.0) + weight / k
            universe.add(asn)
    return per_vp, universe


def cti_scores(
    records: Iterable[PathRecord],
    oracle: RelationshipOracle,
    total_addresses: int,
    trim: float = 0.1,
) -> dict[int, float]:
    """CTI per AS over international-view records — the reference the
    columnar kernel (:func:`repro.perf.cone.cti_scores`) is held to."""
    validate_trim(trim)
    if total_addresses <= 0:
        return {}
    per_vp, universe = per_vp_transit(records, oracle)
    vp_ips = sorted(per_vp)
    scores: dict[int, float] = {}
    for asn in universe:
        values = [
            per_vp[vp_ip].get(asn, 0.0) / total_addresses for vp_ip in vp_ips
        ]
        scores[asn] = trimmed_mean(values, trim)
    return scores


def cti_ranking(
    view: View,
    oracle: RelationshipOracle,
    trim: float = 0.1,
    tracer: AnyTracer = NULL_TRACER,
) -> Ranking:
    """CTI ranking over a country's international view.

    The table comes from the view's
    :meth:`~repro.core.views.View.computation` — the columnar kernel's
    columns, memoised per oracle and trim, equal to :func:`cti_scores`
    over the view's records — and the address total is shared with
    the cone metrics.
    """
    validate_trim(trim)
    country = view.country
    metric = "CTI" if country is None else f"CTI:{country}"
    with tracer.span(
        "cti", metric=metric, trim=trim, input=len(view),
    ) as span:
        asns, scores = view.computation(tracer).cti(oracle, trim)
        span.set(output=len(asns))
        tracer.metrics.histogram("cti.universe").observe(len(asns))
        return Ranking.from_columns(metric, asns, scores, scores, country)
