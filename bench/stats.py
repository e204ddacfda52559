"""Summary statistics shared by the runner and ``compare``.

Percentiles use the nearest-rank definition, and a tail percentile is
only reported when at least ``MIN_BEYOND`` samples lie beyond it, so a
p95 over 40 samples is never printed as if it meant something.
"""

from __future__ import annotations

import math
import statistics

#: samples that must lie strictly beyond a reported percentile
MIN_BEYOND = 10

#: candidate percentiles, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values: list[float]) -> float:
    return statistics.median(values)


def quartiles(values: list[float]) -> tuple[float, float]:
    """(Q1, Q3) exactly as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / mid if mid else math.inf


def _rank(count: int, pct: float) -> int:
    """1-based nearest rank of the ``pct`` percentile among ``count``
    samples (rounded first, so 99.9 % of 10 000 is rank 9990)."""
    return max(1, math.ceil(round(pct * count / 100.0, 9)))


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), pct) - 1]


def beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie strictly beyond the
    nearest-rank ``pct`` percentile."""
    return count - _rank(count, pct)


def supported_percentile(count: int) -> float | None:
    """The highest ladder percentile with ``MIN_BEYOND`` samples
    beyond it, or ``None`` when even the median lacks them."""
    for pct in TAIL_LADDER:
        if beyond(count, pct) >= MIN_BEYOND:
            return pct
    return None


def summarize(values: list[float]) -> dict:
    """Median, quartiles and count of one metric over repetitions."""
    q1, q3 = quartiles(values)
    return {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}


def latency_summary(samples_ms: list[float]) -> dict:
    """Median plus the highest supported tail percentile, with the
    sample count always stated."""
    out = {"n": len(samples_ms), "p50": median(samples_ms)}
    pct = supported_percentile(len(samples_ms))
    if pct is not None and pct > 50.0:
        out["tail_pct"] = pct
        out["tail"] = percentile(samples_ms, pct)
    return out
