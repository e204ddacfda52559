"""Country-level Transit Influence by definition (paper §1.3, after
Gamero-Garrido et al., *Quantifying Nations' Exposure to Traffic
Observation and Selective Tampering*).

Over a country's international view:

1. per VP, every AS on a path's transit suffix except the origin earns
   the prefix's addresses over ``k``, its distance from the origin in
   hops (the origin's direct provider ``k = 1``, the next ``k = 2``, …);
   a VP whose suffixes are all bare origins still counts as a VP;
2. each per-VP sum is divided by the country's address total, and an
   AS's CTI is the trimmed mean of its values over the VPs, exactly as
   hegemony's step 2 (a 0 for every VP where it earned nothing).

The columnar kernel (:func:`repro.perf.cone.cti_scores`) is held to
this, bit for bit: each VP's sum adds its terms record by record, along
each suffix from its top provider down.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.hegemony import validate_trim
from repro.core.sanitize import PathRecord, RelationshipOracle

from tests.oracles.cone import transit_suffix
from tests.oracles.hegemony import trimmed_over_vps


def per_vp_transit(
    records: Iterable[PathRecord], oracle: RelationshipOracle
) -> dict[str, dict[int, float]]:
    """Step 1: VP IP → AS → its distance-discounted transit addresses."""
    per_vp: dict[str, dict[int, float]] = {}
    for record in records:
        earned = per_vp.setdefault(record.vp.ip, {})
        suffix = transit_suffix(record.path, oracle)
        for position, asn in enumerate(suffix):
            k = len(suffix) - 1 - position
            if k:
                earned[asn] = earned.get(asn, 0.0) + float(record.addresses) / k
    return per_vp


def cti_scores(
    records: Iterable[PathRecord],
    oracle: RelationshipOracle,
    total_addresses: int,
    trim: float = 0.1,
) -> dict[int, float]:
    """CTI of every AS on a transit suffix above an origin (no scores
    for a country without addresses)."""
    validate_trim(trim)
    if total_addresses <= 0:
        return {}
    return trimmed_over_vps(
        {
            vp: {asn: value / total_addresses for asn, value in earned.items()}
            for vp, earned in per_vp_transit(records, oracle).items()
        },
        trim,
    )
