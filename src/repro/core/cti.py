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

The columnar kernel (:func:`repro.perf.cone.cti_scores`) computes it
from the store's columns; ``tests/oracles/cti.py`` spells it out record
by record, and the test matrix holds the kernel to it.
"""

from __future__ import annotations

from repro.core.hegemony import validate_trim
from repro.core.ranking import Ranking
from repro.core.sanitize import RelationshipOracle
from repro.core.views import View
from repro.obs.trace import NULL_TRACER, AnyTracer


def cti_ranking(
    view: View,
    oracle: RelationshipOracle,
    trim: float = 0.1,
    tracer: AnyTracer = NULL_TRACER,
) -> Ranking:
    """CTI ranking over a country's international view.

    The table comes from the view's
    :meth:`~repro.core.views.View.computation` — the columnar kernel's
    columns, memoised per oracle and trim — and the address total is
    shared with the cone metrics.
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
