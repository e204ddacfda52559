"""Every ``repro`` module imports, and every name in its ``__all__``
resolves: a name left behind by a deletion fails here rather than in a
user's ``from repro.io import *``."""

import importlib
import pkgutil

import repro

MODULES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.name.rpartition(".")[2] != "__main__"
)


def test_every_export_resolves():
    assert {"repro.io.export", "repro.serve.cli"} <= set(MODULES)
    unresolved = [
        f"{name}.{export}"
        for name in MODULES
        for module in [importlib.import_module(name)]
        for export in getattr(module, "__all__", ())
        if not hasattr(module, export)
    ]
    assert not unresolved, f"__all__ names what its module lacks: {unresolved}"
