"""AS hegemony metrics: AHG (global) and the country AHI / AHN.

Fontugne et al.'s two-step estimator (paper §1.2, Figure 2):

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

The columnar kernel (:mod:`repro.perf.hegemony`) computes both steps
from the store's columns; ``tests/oracles/hegemony.py`` spells them out
record by record, and the test matrix holds the kernel to it.
"""

from __future__ import annotations

from repro.core.ranking import Ranking
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


def validate_trim(trim: float) -> float:
    """Reject trims outside ``[0.0, 0.5)`` with a uniform message.

    Every ranking entry point and the columnar kernel funnel through
    this check, so an invalid trim fails the same way on every code
    path instead of being silently capped by the trimmed mean.
    """
    if not 0.0 <= trim < 0.5:
        raise ValueError(f"trim out of range: {trim}")
    return trim


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
    :meth:`~repro.core.views.View.computation` — the columnar kernel's
    columns, memoised per (trim, weighting).
    """
    validate_trim(trim)
    if metric is None:
        metric = "AH" if view.country is None else f"AH:{view.country}"
    with tracer.span(
        "hegemony", metric=metric, trim=trim, input=len(view),
    ) as span:
        asns, scores = view.computation(tracer).hegemony(trim, weighting)
        span.set(output=len(asns))
        tracer.metrics.histogram("hegemony.universe").observe(len(asns))
        return Ranking.from_columns(metric, asns, scores, scores, view.country)
