"""Ranking stability under VP downsampling (paper §4, Figures 4–5).

The paper asks: if we had observed the world through fewer vantage
points, would the top-ranked ASes (TRA) have come out the same? For
each sample size it draws random VP subsets, recomputes the metric on
the restricted view, and scores the sample's top-10 against the full
ranking with NDCG. The number of VPs needed to clear an NDCG threshold
(0.8 / 0.9 in the paper) tells a country how much collector deployment
buys ranking fidelity.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.core.ndcg import ndcg
from repro.core.pipeline import PipelineResult
from repro.core.ranking import Ranking
from repro.core.registry import MetricContext, maybe_spec
from repro.core.sanitize import RelationshipOracle
from repro.core.views import View


@dataclass(frozen=True, slots=True)
class StabilityPoint:
    """NDCG statistics for one sample size."""

    sample_size: int
    mean_ndcg: float
    std_ndcg: float
    trials: int


@dataclass(frozen=True, slots=True)
class StabilityCurve:
    """A full downsampling sweep for one metric and view."""

    metric: str
    country: str
    total_vps: int
    points: tuple[StabilityPoint, ...]

    def min_vps_for(self, threshold: float) -> int | None:
        """Smallest sample size whose mean NDCG meets the threshold
        (and stays there for every larger sampled size)."""
        qualified: int | None = None
        for point in sorted(self.points, key=lambda p: p.sample_size):
            if point.mean_ndcg >= threshold:
                if qualified is None:
                    qualified = point.sample_size
            else:
                qualified = None
        return qualified

    def as_rows(self) -> list[tuple[int, float, float]]:
        """(size, mean NDCG, std) rows, ascending by size."""
        return [
            (p.sample_size, p.mean_ndcg, p.std_ndcg)
            for p in sorted(self.points, key=lambda q: q.sample_size)
        ]


def metric_ranking(
    metric: str, view: View, oracle: RelationshipOracle, trim: float = 0.1
) -> Ranking:
    """One CC*/AH* ranking over an arbitrary (possibly downsampled)
    view — the per-trial work unit — built by the metric's registered
    spec, like every other ranking.

    Cone-family specs rank by customer cone, hegemony-family specs by
    AS hegemony (honouring a variant's ``weighting``); other families
    (AHC, CTI) are not view-restrictable per trial and are rejected.
    """
    spec = maybe_spec(metric)
    if spec is None or spec.family not in ("cone", "hegemony"):
        raise ValueError(
            f"stability analysis supports CC*/AH* metrics, not {metric!r}"
        )
    return spec.build(MetricContext(
        view=view, oracle=oracle, trim=trim, country=view.country,
    ))


def stability_curve(
    result: PipelineResult,
    metric: str,
    view: View,
    sizes: list[int] | None = None,
    trials: int = 10,
    seed: int = 0,
    k: int = 10,
    workers: int = 1,
) -> StabilityCurve:
    """Downsample a view's VPs and score each sample against the full
    ranking (the machinery behind Figures 4 and 5).

    Every VP sample is drawn up front from one RNG stream seeded by
    ``seed``; each trial view is :meth:`View.restrict_vps` — the view's
    positions masked by the sampled VPs' ids, over the same store —
    ranked through :func:`metric_ranking`, one trial after another.
    ``workers`` (validated ``>= 1``) is accepted for callers that still
    pass it and changes nothing.
    """
    if trials < 1:
        raise ValueError("need at least one trial per size")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    vps = [vp.ip for vp in view.vps()]
    total = len(vps)
    if sizes is None:
        sizes = sorted({s for s in _default_sizes(total)})
    oracle, trim = result.oracle, result.config.trim
    full = metric_ranking(metric, view, oracle, trim)
    rng = random.Random(seed)
    valid_sizes = [size for size in sizes if 1 <= size <= total]
    samples: list[list[str]] = [
        rng.sample(vps, size) for size in valid_sizes for _ in range(trials)
    ]
    scores = [
        ndcg(full, metric_ranking(
            metric, view.restrict_vps(sample), oracle, trim
        ), k)
        for sample in samples
    ]
    points: list[StabilityPoint] = []
    for index, size in enumerate(valid_sizes):
        batch = scores[index * trials:(index + 1) * trials]
        mean = sum(batch) / len(batch)
        variance = sum((s - mean) ** 2 for s in batch) / len(batch)
        points.append(StabilityPoint(size, mean, math.sqrt(variance), trials))
    return StabilityCurve(
        metric=metric,
        country=view.country or "global",
        total_vps=total,
        points=tuple(points),
    )


def _default_sizes(total: int) -> list[int]:
    """A sensible sweep grid: dense at the small end, sparse later."""
    sizes = [s for s in (1, 2, 3, 4, 5, 6, 8, 10, 13, 16, 20, 25, 32, 40,
                         50, 65, 80, 100, 130, 160, 200) if s < total]
    sizes.append(total)
    return sizes


def national_stability(
    result: PipelineResult,
    country: str,
    metric: str = "AHN",
    sizes: list[int] | None = None,
    trials: int = 10,
    seed: int = 0,
    workers: int = 1,
) -> StabilityCurve:
    """Figure 4: stability of a country's national ranking (AHN/CCN)."""
    view = result.view("national", country)
    return stability_curve(result, metric, view, sizes, trials, seed, workers=workers)


def international_stability(
    result: PipelineResult,
    country: str,
    metric: str = "AHI",
    sizes: list[int] | None = None,
    trials: int = 10,
    seed: int = 0,
    workers: int = 1,
) -> StabilityCurve:
    """Figure 5: stability of a country's international ranking (AHI/CCI)."""
    view = result.view("international", country)
    return stability_curve(result, metric, view, sizes, trials, seed, workers=workers)
