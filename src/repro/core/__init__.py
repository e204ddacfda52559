"""The paper's contribution: sanitization, views, and the four
country-level ranking metrics (CCI, CCN, AHI, AHN) plus the global and
baseline metrics they are compared against (CCG, AHG, AHC, CTI)."""

from repro.core.ahc import ahc_ranking
from repro.core.cone import cone_ranking
from repro.core.cti import cti_ranking
from repro.core.hegemony import hegemony_ranking
from repro.core.ndcg import dcg, ndcg
from repro.core.pipeline import Pipeline, PipelineConfig, PipelineResult, run_pipeline
from repro.core.ranking import RankEntry, Ranking
from repro.core.sanitize import (
    FilterReport,
    PathRecord,
    PathSet,
    RelationshipOracle,
    sanitize,
)
from repro.core.views import View

__all__ = [
    "FilterReport",
    "PathRecord",
    "PathSet",
    "Pipeline",
    "PipelineConfig",
    "PipelineResult",
    "RankEntry",
    "Ranking",
    "RelationshipOracle",
    "View",
    "ahc_ranking",
    "cone_ranking",
    "cti_ranking",
    "dcg",
    "hegemony_ranking",
    "ndcg",
    "run_pipeline",
    "sanitize",
]
