"""repro — country-level AS rankings over a simulated BGP substrate.

A full reproduction of "On the Importance of Being an AS: An Approach
to Country-Level AS Rankings" (IMC 2023): the four country metrics
(CCI, CCN, AHI, AHN), the baselines they are compared against (CCG,
AHG, AHC, CTI), the Table-1 sanitization pipeline, the NDCG stability
methodology, and every substrate required to run them — a country-aware
topology generator, a valley-free BGP simulator with collectors and
vantage points, a synthetic geolocation database, and a Luckie-style
relationship inference.

Quickstart::

    from repro import generate_world, run_pipeline
    result = run_pipeline(generate_world(seed=7))
    print(result.ranking("AHN", "AU").render(5, result.as_name))
"""

from repro.core.pipeline import (
    ALL_METRICS,
    COUNTRY_METRICS,
    GLOBAL_METRICS,
    Pipeline,
    PipelineConfig,
    PipelineResult,
    run_pipeline,
)
from repro.core.ranking import RankEntry, Ranking
from repro.core.registry import (
    METRICS,
    MetricSpec,
    get_spec,
    metric_names,
    normalize_country,
    paper_metrics,
)
from repro.core.ndcg import dcg, ndcg
from repro.obs import Tracer, stage_report, to_jsonl, to_prometheus
from repro.perf import PathIndex, ViewComputation
from repro.resilience import Checkpoint
from repro.topology.generator import GeneratorConfig, generate_world
from repro.topology.profiles import (
    default_profiles,
    large_profiles,
    small_profiles,
)
from repro.topology.world import World

__version__ = "1.0.0"

__all__ = [
    "ALL_METRICS",
    "COUNTRY_METRICS",
    "Checkpoint",
    "GLOBAL_METRICS",
    "GeneratorConfig",
    "METRICS",
    "MetricSpec",
    "PathIndex",
    "Pipeline",
    "PipelineConfig",
    "PipelineResult",
    "RankEntry",
    "Ranking",
    "Tracer",
    "ViewComputation",
    "World",
    "__version__",
    "dcg",
    "default_profiles",
    "generate_world",
    "get_spec",
    "large_profiles",
    "metric_names",
    "ndcg",
    "normalize_country",
    "paper_metrics",
    "run_pipeline",
    "small_profiles",
    "stage_report",
    "to_jsonl",
    "to_prometheus",
]
