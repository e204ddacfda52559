"""BGP substrate: policy, propagation, collectors, RIBs, anomalies."""

from repro.bgp.announcement import Announcement, RibRecord
from repro.bgp.collectors import Collector, CollectorProject, CollectorSet, VantagePoint
from repro.bgp.policy import Route, RouteClass
from repro.bgp.propagation import RoutingOutcome, propagate, propagate_all
from repro.bgp.rib import RibDump, RibGenerationConfig, RibSeries, generate_rib_days
from repro.bgp.updates import (
    ChurnSummary,
    Update,
    UpdateKind,
    churn_profile,
    daily_updates,
    diff_ribs,
)
from repro.bgp.anomalies import AnomalyConfig, InjectionSummary

__all__ = [
    "AnomalyConfig",
    "Announcement",
    "ChurnSummary",
    "Collector",
    "CollectorProject",
    "CollectorSet",
    "InjectionSummary",
    "RibDump",
    "RibGenerationConfig",
    "RibRecord",
    "RibSeries",
    "Route",
    "RouteClass",
    "RoutingOutcome",
    "Update",
    "UpdateKind",
    "VantagePoint",
    "churn_profile",
    "daily_updates",
    "diff_ribs",
    "generate_rib_days",
    "propagate",
    "propagate_all",
]
