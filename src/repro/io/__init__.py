"""Dataset export: the artifacts the paper promises to share
(rankings, input AS paths, VP geolocations, filtering reports), and the
replay that recomputes rankings from a released bundle."""

from repro.io.replay import ReplayError, ReplaySession, load_pathset_jsonl
from repro.io.export import (
    export_filter_report,
    export_ixp_csv,
    export_pathset_jsonl,
    export_rankings_csv,
    export_vp_locations_csv,
    release_dataset,
)

__all__ = [
    "ReplayError",
    "ReplaySession",
    "export_filter_report",
    "export_ixp_csv",
    "export_pathset_jsonl",
    "export_rankings_csv",
    "export_vp_locations_csv",
    "load_pathset_jsonl",
    "release_dataset",
]
