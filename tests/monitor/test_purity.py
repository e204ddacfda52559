"""The watch path is pure: a watch run reads no clock and draws from no
RNG it did not seed, and writes into no store column or view position.

Under ``tests/core/test_compute_purity.py``'s stubs — module-level and
unseeded ``random`` / ``numpy.random`` draws and ``time`` / ``datetime``
clock reads raise, also where a ``repro`` module imported them by name
— and with every store's columns (its derived weight columns too) and
every view's positions read-only from the moment they are built, a
``watch`` with the null tracer must emit the same event stream as an
unpatched run: over two ``small`` world snapshots (world generation,
the pipeline and every metric) and over two released ``paths.jsonl``
snapshots (the replay session and every replayable metric).
"""

import numpy as np
import pytest

from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.core.registry import metric_names
from repro.core.views import View
from repro.io.export import export_pathset_jsonl
from repro.monitor import WatchConfig, resolve_snapshots, watch
from repro.perf.pathstore import COLUMNS, PathStore
from repro.topology.catalog import build_world

from tests.core.test_compute_purity import forbid_impurities


def freeze_on_build(patch):
    """Make each store's columns and each view's positions read-only
    as soon as its constructor returns, and each derived store column
    as soon as it is derived."""

    def freezing(cls, method, freeze):
        original = getattr(cls, method)

        def wrapped(self, *args, **kwargs):
            value = original(self, *args, **kwargs)
            freeze(self, value)
            return value

        patch.setattr(cls, method, wrapped)

    def freeze_columns(store, _):
        for name in COLUMNS:
            getattr(store, name).flags.writeable = False

    def freeze_derived(store, value):
        if isinstance(value, np.ndarray):
            value.flags.writeable = False

    def freeze_positions(view, _):
        view.positions.flags.writeable = False

    freezing(PathStore, "__init__", freeze_columns)
    freezing(PathStore, "__getattr__", freeze_derived)
    freezing(View, "__init__", freeze_positions)


#: the ``small`` world's countries with in-country VPs
HOME = ("AU", "DE", "JP", "NL", "US")


def assert_pure(specs, config):
    reference = watch(resolve_snapshots(specs), config).jsonl()
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        freeze_on_build(patch)
        forbid_impurities(patch, calls)
        stream = watch(resolve_snapshots(specs), config).jsonl()
    assert calls == []
    assert stream == reference


def test_world_snapshots_watch_purely():
    assert_pure(
        ["small@0", "small@1"],
        WatchConfig(metrics=metric_names(), countries=HOME),
    )


def test_release_snapshots_watch_purely(tmp_path):
    releases = []
    for seed in (0, 1):
        result = run_pipeline(build_world("small", seed), PipelineConfig(seed=seed))
        releases.append(tmp_path / f"day{seed}.jsonl")
        export_pathset_jsonl(result.paths, releases[-1])
    assert_pure(
        [str(path) for path in releases],
        WatchConfig(metrics=metric_names(replayable=True)),
    )
