"""AS hegemony by definition (paper §1.2 and §3, after Fontugne et al.,
*The (thin) Bridges of AS Connectivity*), and IHR's AHC baseline.

1. Per vantage point, an AS's betweenness is the fraction of the VP's
   path weight on paths that contain it (the VP's own AS and the
   origin included). A path weighs its prefix's addresses (the paper's
   estimator) or 1 (the per-prefix ablation); a path of weight 0 is no
   path, so a VP whose paths all weigh 0 is no VP.
2. An AS's hegemony is the mean of its per-VP betweenness — a 0 for
   every VP none of whose paths contain it — after dropping
   ``ceil(trim · n)`` values from each end, capped at ``(n - 1) // 2``
   so the median always survives.

*Local hegemony* toward an origin is hegemony over the paths to that
origin's prefixes. AHC (§1.2.1) averages the local hegemony of every
origin registered in the country that has observed paths, each origin
weighing 1 (``as_count``) or its observed address footprint
(``addresses``; an origin of footprint 0 drops out).

The columnar kernel (:mod:`repro.perf.hegemony`) and the AHC column
average (:func:`repro.core.ahc.ahc_ranking`) are held to these, bit for
bit: every sum below adds its terms in the order the definition reads.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.core.ahc import AHC_WEIGHTINGS
from repro.core.hegemony import check_weighting, validate_trim
from repro.core.sanitize import PathRecord


def betweenness(
    records: Iterable[PathRecord], weighting: str = "addresses"
) -> dict[str, dict[int, float]]:
    """Step 1: VP IP → AS → the VP's weight fraction through the AS."""
    check_weighting(weighting)
    through: dict[str, dict[int, float]] = {}
    weight_of_vp: dict[str, float] = {}
    for record in records:
        weight = float(record.addresses) if weighting == "addresses" else 1.0
        if weight <= 0.0:
            continue
        vp = record.vp.ip
        weight_of_vp[vp] = weight_of_vp.get(vp, 0.0) + weight
        on = through.setdefault(vp, {})
        for asn in record.path.unique_asns():
            on[asn] = on.get(asn, 0.0) + weight
    return {
        vp: {asn: weight / weight_of_vp[vp] for asn, weight in on.items()}
        for vp, on in through.items()
    }


def trimmed_mean(values: list[float], trim: float) -> float:
    """Step 2's mean after trimming ``ceil(trim · n)`` values per end
    (capped so at least one survives); 0.0 for no values."""
    n = len(values)
    if n == 0:
        return 0.0
    k = min(math.ceil(trim * n), (n - 1) // 2)
    kept = sorted(values)[k:n - k]
    return sum(kept) / len(kept)


def trimmed_over_vps(
    per_vp: dict[str, dict[int, float]], trim: float
) -> dict[int, float]:
    """Step 2 over a per-VP table: every AS in it → the trimmed mean of
    its value at every VP (0.0 where a VP lacks it)."""
    validate_trim(trim)
    universe = sorted(set().union(*per_vp.values()))
    return {
        asn: trimmed_mean([table.get(asn, 0.0) for table in per_vp.values()], trim)
        for asn in universe
    }


def hegemony_scores(
    records: Iterable[PathRecord],
    trim: float = 0.1,
    weighting: str = "addresses",
) -> dict[int, float]:
    """AS hegemony of every AS on a path of positive weight."""
    validate_trim(trim)
    return trimmed_over_vps(betweenness(records, weighting), trim)


def local_hegemony(
    records: Iterable[PathRecord], origin: int, trim: float = 0.1
) -> dict[int, float]:
    """Hegemony over the paths toward ``origin``'s prefixes (IHR's
    network dependency, the AHC ingredient)."""
    return hegemony_scores(
        (record for record in records if record.origin == origin), trim
    )


def weighted_average(
    tables: dict[int, dict[int, float]], weights: dict[int, float]
) -> dict[int, float]:
    """AHC's average: every AS → the sum over the weighted origins, in
    ascending order, of weight × its value there, over the weight sum."""
    totals: dict[int, float] = {}
    weight_sum = 0.0
    for origin in sorted(weights):
        weight_sum += weights[origin]
        for asn, value in tables[origin].items():
            totals[asn] = totals.get(asn, 0.0) + weights[origin] * value
    return {asn: total / weight_sum for asn, total in totals.items()}


def ahc_scores(
    records: Iterable[PathRecord],
    country_origins: Iterable[int],
    trim: float = 0.1,
    weighting: str = "as_count",
) -> dict[int, float]:
    """AHC over the registered ``country_origins``: the weighted average
    of the local hegemony of those with observed paths."""
    if weighting not in AHC_WEIGHTINGS:
        raise ValueError(f"unknown AHC weighting {weighting!r}")
    validate_trim(trim)
    toward: dict[int, list[PathRecord]] = {
        origin: [] for origin in sorted(set(country_origins))
    }
    for record in records:
        if record.origin in toward:
            toward[record.origin].append(record)
    weights: dict[int, float] = {}
    for origin, paths in toward.items():
        weight = (
            float(sum({r.prefix: r.addresses for r in paths}.values()))
            if weighting == "addresses" else 1.0
        )
        if paths and weight > 0.0:
            weights[origin] = weight
    return weighted_average(
        {origin: hegemony_scores(toward[origin], trim) for origin in weights},
        weights,
    )
