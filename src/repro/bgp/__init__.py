"""BGP substrate: policy, propagation, collectors, RIBs, anomalies."""

from repro.bgp.announcement import RibRecord
from repro.bgp.collectors import Collector, CollectorProject, CollectorSet, VantagePoint
from repro.bgp.policy import Route, RouteClass
from repro.bgp.propagation import RoutingOutcome, propagate, propagate_all
from repro.bgp.rib import RibGenerationConfig, RibSeries, generate_rib_days
from repro.bgp.anomalies import AnomalyConfig, InjectionSummary

__all__ = [
    "AnomalyConfig",
    "Collector",
    "CollectorProject",
    "CollectorSet",
    "InjectionSummary",
    "RibGenerationConfig",
    "RibRecord",
    "RibSeries",
    "Route",
    "RouteClass",
    "RoutingOutcome",
    "VantagePoint",
    "generate_rib_days",
    "propagate",
    "propagate_all",
]
