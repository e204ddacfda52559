"""The ranking path imports no more of numpy than it uses.

A plain ``np.unique`` imports ``numpy.ma`` on its first call (an
``is_masked`` check, 5–6 ms a process), so the path from a world to
its rankings sorts distinct values with
:func:`repro.net.aspath.sorted_distinct` instead. Each run is a fresh
interpreter, as the import is once per process: the ``small`` world on
both store backends, traced and untraced, and the ``paper2021`` world,
whose sparse ASNs steer ``np.isin`` to its sorting path.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import repro

RUN = """
import sys, tempfile
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.core.registry import metric_names
from repro.topology.catalog import build_world

backend, trace = sys.argv[1], sys.argv[2] == "1"
world = sys.argv[3] if len(sys.argv) > 3 else "small"
assert "numpy.ma" not in sys.modules, "imported before the run"
with tempfile.TemporaryDirectory() as spill:
    result = run_pipeline(build_world(world, 0), PipelineConfig(
        trace=trace, store_backend=backend,
        spill_dir=spill if backend == "mmap" else None,
    ))
    result.rank_all()
    result.rank_all(metric_names())
    result.close()
print("numpy.ma" in sys.modules)
"""


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("backend", ["memory", "mmap"])
def test_ranking_path_leaves_numpy_ma_unimported(backend, trace):
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", RUN, backend, str(int(trace))],
        capture_output=True, text=True, env=env, timeout=120,
        cwd=tempfile.gettempdir(),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_paper_world_leaves_numpy_ma_unimported():
    """``paper2021``'s real 32-bit ASNs are too sparse for ``np.isin``'s
    table path, so a membership test there must not fall back to its
    sort (whose plain ``np.unique`` imports ``numpy.ma``)."""
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", RUN, "memory", "0", "paper2021"],
        capture_output=True, text=True, env=env, timeout=120,
        cwd=tempfile.gettempdir(),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
