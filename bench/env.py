"""Where the benchmark finds the program, and what host it ran on.

The benchmark measures the ``repro`` package of the checkout it sits
in (``src/repro`` next to ``bench/``), never an installed copy, and
writes only under ``bench/out/``.
"""

from __future__ import annotations

import compileall
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"


class SourceMissing(RuntimeError):
    """The checkout has no ``src/repro`` package to measure."""


def require_source() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceMissing(f"no repro package under {SRC}")


def use_source() -> None:
    """Make ``import repro`` load this checkout's package."""
    require_source()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def build() -> None:
    """Byte-compile the package, so no measured child pays for it."""
    require_source()
    if not compileall.compile_dir(str(SRC), quiet=1):
        raise SourceMissing(f"{SRC} does not compile")


def dir_mb(path: Path) -> float:
    """Total size of the files directly in ``path``, in MB."""
    return sum(p.stat().st_size for p in path.iterdir()) / 1e6


def child_env() -> dict[str, str]:
    """Environment for child processes: this checkout first on the
    path."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([extra] if extra else [])
    )
    return env


def provenance() -> dict:
    affinity = (
        sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None
    )
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()) if hasattr(os, "getloadavg") else None,
    }
