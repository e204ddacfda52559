"""Customer-cone metrics: CCG (global) and the country CCI / CCN.

Luckie et al.'s observed-path customer cone (paper §1.1, Figure 1):
for every sanitized AS path, the *transit suffix* is the maximal run of
provider→customer links ending at the origin. Every AS on that suffix
has everything downstream of it (on that observed path) in its
customer cone. Cones are **not** computed transitively from the
relationship graph — only observed paths contribute — which avoids
inflating cones through complex relationships.

At the prefix level we follow CAIDA's published semantics (§1.1: "the
prefix CC for an AS includes every prefix that an AS in its customer
cone announced into BGP"): the AS-level cone is computed from observed
paths, then an AS's prefix cone is the union of the (observed,
view-relevant) prefixes *originated by its cone members*. This closure
is what lets a wholesale provider's cone cover 80 % of a country's
address space even when only a few percent of observed paths actually
cross it (the paper's Vocus example, Table 5). The metric value of an
AS is the number of distinct addresses owned by the prefixes in its
cone, and the reported share divides by the view's total address space
(a country's space for CCI/CCN, the world's for CCG).

The columnar kernel (:mod:`repro.perf.cone`) computes all of it from
the store's columns; ``tests/oracles/cone.py`` spells the definition
out record by record, and the test matrix holds the kernel to it.
"""

from __future__ import annotations

import numpy as np

from repro.core.ranking import Ranking
from repro.core.sanitize import RelationshipOracle
from repro.core.views import View
from repro.obs.trace import NULL_TRACER, AnyTracer


def cone_ranking(
    view: View,
    oracle: RelationshipOracle,
    metric: str | None = None,
    total_addresses: int | None = None,
    tracer: AnyTracer = NULL_TRACER,
) -> Ranking:
    """Rank ASes by cone address coverage within a view.

    ``total_addresses`` is the share denominator; by default the view's
    own distinct destination address total, which makes shares read as
    "fraction of this country's address space reachable through the
    AS's customers" for country views.

    Cone addresses and the address total come from (and populate) the
    view's :meth:`~repro.core.views.View.computation`, the columnar
    kernel's memoised intermediates. Each value is ``float(count)`` and
    each share ``count / denominator``.
    """
    if metric is None:
        metric = "CC" if view.country is None else f"CC:{view.country}"
    with tracer.span("cone", metric=metric, input=len(view)) as span:
        compute = view.computation(tracer)
        addresses = compute.cone_addresses(oracle)
        denominator = (
            total_addresses if total_addresses is not None
            else compute.total_addresses()
        )
        values, shares = _cone_scores(addresses.values, denominator)
        span.set(output=len(values))
        tracer.metrics.histogram("cone.ases").observe(len(values))
        return Ranking.from_columns(
            metric, addresses.asns, values, shares, view.country,
        )


def _cone_scores(
    counts: np.ndarray, denominator: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per exact address count, ``float(count)`` and its share
    ``count / denominator`` (no shares when the denominator is 0).

    While the counts are int64 — every count below 2**53 — and the
    denominator is below 2**53 too, float64 holds each exactly, so
    numpy's conversion and division are Python's correctly rounded
    ``float(count)`` and ``count / denominator``. Otherwise Python's
    own int arithmetic computes them.
    """
    if counts.dtype == np.int64 and abs(denominator) < 2**53:
        values = counts.astype(np.float64)
        return values, (values / denominator if denominator else None)
    exact = counts.tolist()
    values = np.array([float(count) for count in exact], dtype=np.float64)
    if not denominator:
        return values, None
    return values, np.array(
        [count / denominator for count in exact], dtype=np.float64
    )
