"""Customer-cone metrics: CCG (global) and the country CCI / CCN.

Implementation of Luckie et al.'s observed-path customer cone (paper
§1.1, Figure 1): for every sanitized AS path, the *transit suffix* is
the maximal run of provider→customer links ending at the origin. Every
AS on that suffix has everything downstream of it (on that observed
path) in its customer cone. Cones are **not** computed transitively
from the relationship graph — only observed paths contribute — which
avoids inflating cones through complex relationships.

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
"""

from __future__ import annotations

from typing import Iterable

from repro.core.ranking import Ranking
from repro.core.sanitize import PathRecord, RelationshipOracle
from repro.core.views import View
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.obs.trace import NULL_TRACER, AnyTracer


def transit_suffix(path: ASPath, oracle: RelationshipOracle) -> tuple[int, ...]:
    """The maximal all-p2c suffix of a path (VP→origin order).

    Walks backward from the origin while links are provider→customer;
    stops at the first peer, customer-to-provider, or unknown link.
    Always contains at least the origin.
    """
    asns = path.asns
    start = len(asns) - 1
    for index in range(len(asns) - 2, -1, -1):
        if oracle.relationship(asns[index], asns[index + 1]) == "p2c":
            start = index
        else:
            break
    return asns[start:]


def cones_from_suffixes(
    suffixes: Iterable[tuple[int, ...]],
) -> dict[int, set[int]]:
    """Accumulate AS-level cones from transit suffixes.

    Walks each suffix origin-first, accumulating the downstream set
    once per suffix instead of allocating a ``suffix[position + 1:]``
    tuple per position. A repeated suffix contributes nothing new (the
    updates are idempotent), so callers holding interned suffixes may
    pass each *distinct* suffix once — the columnar kernel
    (:func:`repro.perf.cone.view_cones`) does exactly that.
    """
    cones: dict[int, set[int]] = {}
    setdefault = cones.setdefault
    for suffix in suffixes:
        downstream: set[int] = set()
        for asn in reversed(suffix):
            cone = setdefault(asn, {asn})
            cone.update(downstream)
            downstream.add(asn)
    return cones


def customer_cones(
    records: Iterable[PathRecord],
    oracle: RelationshipOracle,
) -> dict[int, set[int]]:
    """AS-level cones: every AS maps to itself plus the ASes observed
    downstream of it on some path's transit suffix."""
    return cones_from_suffixes(
        transit_suffix(record.path, oracle) for record in records
    )


def prefix_cones(
    records: Iterable[PathRecord],
    oracle: RelationshipOracle,
    as_cones: dict[int, set[int]] | None = None,
) -> dict[int, set[Prefix]]:
    """Prefix-level cones, closure style: every prefix (observed in the
    records) originated by an AS in the holder's AS-level cone.

    ``as_cones`` short-circuits the AS-level computation with an
    already-built result for the same records (the cross-metric cache).
    """
    materialized = list(records)
    prefixes_by_origin: dict[int, set[Prefix]] = {}
    for record in materialized:
        prefixes_by_origin.setdefault(record.origin, set()).add(record.prefix)
    if as_cones is None:
        as_cones = customer_cones(materialized, oracle)
    cones: dict[int, set[Prefix]] = {}
    for asn, members in as_cones.items():
        prefixes: set[Prefix] = set()
        for member in members:
            prefixes.update(prefixes_by_origin.get(member, ()))
        cones[asn] = prefixes
    return cones


def cone_addresses(
    records: Iterable[PathRecord],
    oracle: RelationshipOracle,
    as_cones: dict[int, set[int]] | None = None,
) -> dict[int, int]:
    """Distinct addresses in each AS's (closure) prefix cone.

    Addresses are the *owned* (block-level, non-overlapping) counts
    carried on the records, so overlapping announcements do not double
    count.
    """
    materialized = list(records)
    weights: dict[Prefix, int] = {
        record.prefix: record.addresses for record in materialized
    }
    return {
        asn: sum(weights[prefix] for prefix in prefixes)
        for asn, prefixes in prefix_cones(materialized, oracle, as_cones).items()
    }


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
    kernel's memoised intermediates — equal to :func:`cone_addresses`
    and ``View.total_addresses`` over the view's records.
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
        shares = (
            {asn: count / denominator for asn, count in addresses.items()}
            if denominator
            else None
        )
        span.set(output=len(addresses))
        tracer.metrics.histogram("cone.ases").observe(len(addresses))
        return Ranking.from_scores(
            metric, {asn: float(count) for asn, count in addresses.items()},
            shares, view.country,
        )
