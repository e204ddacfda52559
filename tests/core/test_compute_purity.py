"""Every registered metric compute is a pure function of its context.

Rankings are memoised, checkpointed and served on the promise that a
spec's compute callable reads only ``(spec, ctx)``: it draws from no
RNG it did not seed, reads no clock, and writes nothing it was handed.
Every registered spec is built, for every home country, on the
``small`` world with

* the store's numpy columns and every view's positions read-only
  (``flags.writeable = False``), so a write into them raises;
* module-level ``random`` and ``numpy.random`` draws, an unseeded
  ``random.Random()`` or ``numpy.random.default_rng()``, and ``time`` /
  ``datetime`` clock reads replaced by stubs that record the call and
  raise — in the modules that define them and wherever a ``repro``
  module imported them by name;

and each ranking must equal the one an unpatched run builds, with the
store's side tables, the view positions and the oracle unchanged.
"""

import datetime
import random
import sys
import time

import numpy as np

from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.core.registry import iter_specs
from repro.perf.pathstore import COLUMNS
from repro.topology.catalog import build_world

CLOCKS = (
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "localtime",
    "gmtime", "ctime",
)


def run():
    return run_pipeline(build_world("small", 0), PipelineConfig(seed=0))


def units(result):
    """(spec, country) for every registered spec: each home country
    for country metrics, ``None`` for global ones."""
    countries = result.countries_with_national_view(min_vps=1)
    return [
        (spec, country)
        for spec in iter_specs()
        for country in (countries if spec.needs_country else [None])
    ]


def described(ranking):
    return ranking.metric, ranking.country, repr(ranking.entries)


def build_all(result, todo):
    return {
        (spec.name, country): described(result.ranking(spec.name, country))
        for spec, country in todo
    }


def forbid_impurities(patch, calls):
    """Replace every RNG draw and clock read named in the module
    docstring with a stub that appends to ``calls`` and raises."""
    replaced = {}

    def stub(what):
        def refuse(*args, **kwargs):
            calls.append(what)
            raise AssertionError(f"metric compute called {what}")
        return refuse

    def replace(owner, name, replacement):
        replaced[id(getattr(owner, name))] = (getattr(owner, name), replacement)
        patch.setattr(owner, name, replacement)

    shared_random = random.random.__self__
    for name in dir(random):
        if getattr(getattr(random, name), "__self__", None) is shared_random:
            replace(random, name, stub(f"random.{name}()"))
    shared_numpy = np.random.rand.__self__
    for name in dir(np.random):
        if getattr(getattr(np.random, name), "__self__", None) is shared_numpy:
            replace(np.random, name, stub(f"numpy.random.{name}()"))

    class SeededRandom(random.Random):
        def __init__(self, x=None):
            if x is None:
                stub("random.Random() without a seed")()
            super().__init__(x)

    replace(random, "Random", SeededRandom)
    default_rng = np.random.default_rng

    def seeded_rng(seed=None):
        if seed is None:
            stub("numpy.random.default_rng() without a seed")()
        return default_rng(seed)

    replace(np.random, "default_rng", seeded_rng)
    for name in CLOCKS:
        replace(time, name, stub(f"time.{name}()"))
    for cls in (datetime.datetime, datetime.date):
        readers = {
            name: classmethod(stub(f"{cls.__name__}.{name}()"))
            for name in ("now", "utcnow", "today", "fromtimestamp")
            if hasattr(cls, name)
        }
        replace(datetime, cls.__name__, type(cls.__name__, (cls,), readers))
    # names a repro module bound with ``from m import name``
    for module_name, module in list(sys.modules.items()):
        if module_name != "repro" and not module_name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                patch.setattr(module, attr, hit[1])


def test_every_compute_is_pure(monkeypatch):
    unpatched = run()
    reference = build_all(unpatched, units(unpatched))
    result = run()
    todo = units(result)
    views = []
    for spec, country in todo:
        view = result.view(
            spec.view_kind, None if spec.view_kind == "global" else country,
        )
        if view not in views:
            views.append(view)
    store = result.paths.store()
    assert all(view.store is store for view in views)
    store.record_weight  # derive the lazy column so it is frozen too
    for name in (*COLUMNS, "record_weight"):
        getattr(store, name).flags.writeable = False
    for view in views:
        view.positions.flags.writeable = False
    tables = (list(store.vp_table), list(store.prefix_table))
    positions = [view.positions.copy() for view in views]
    oracle = (result.oracle.version, list(result.oracle.edges()))

    calls = []
    with monkeypatch.context() as patch:
        forbid_impurities(patch, calls)
        built = build_all(result, todo)

    assert calls == []
    assert built == reference
    assert (list(store.vp_table), list(store.prefix_table)) == tables
    for view, before in zip(views, positions):
        assert np.array_equal(view.positions, before), view.name
    assert (result.oracle.version, list(result.oracle.edges())) == oracle
