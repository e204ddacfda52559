"""The RIB series' grid draws against one ``zlib.crc32`` per cell.

:func:`repro.bgp.rib.crc32_grid` computes a whole draw grid from
CRC-32's affinity, and :func:`repro.bgp.rib.crc32_cells` gathers cells
of one; the series reads visibility and anomaly rolls from the first
and the planted cells' draw seeds from the second. The reference below
is the per-cell definition: a ``_stable_uniform`` per (VP, prefix)
cell for visibility and the roll, the clean path of every carried cell
from the routes' façade, and the record-keyed draw seed fed to the
per-path injector (``tests/bgp/anomaly_oracle.py``) — so the missing
cells, the planted overrides and the injection summary must come out
equal.
"""

import _random
import sys
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.propagation import propagate_all
from repro.bgp.rib import _stable_uniform, crc32_cells, crc32_grid, generate_rib_days
from repro.core.pipeline import PipelineConfig
from repro.net.aspath import ASPath
from repro.topology.catalog import build_world
from tests.bgp.anomaly_oracle import inject_anomalies

blobs = st.lists(st.binary(max_size=40), max_size=8)


@settings(max_examples=200, deadline=None)
@given(blobs, blobs)
def test_crc_grid_equals_per_cell_crc(heads, tails):
    grid = crc32_grid(heads, tails)
    assert grid.dtype == np.uint32
    assert grid.shape == (len(heads), len(tails))
    assert grid.tolist() == [
        [zlib.crc32(head + tail) for tail in tails] for head in heads
    ]


@settings(max_examples=200, deadline=None)
@given(st.data(), blobs.filter(bool), blobs.filter(bool))
def test_crc_cells_equal_per_cell_crc(data, heads, tails):
    cells = data.draw(st.lists(st.tuples(
        st.integers(0, len(heads) - 1), st.integers(0, len(tails) - 1)
    )))
    rows = np.asarray([row for row, _ in cells], dtype=np.int64)
    cols = np.asarray([col for _, col in cells], dtype=np.int64)
    values = crc32_cells(heads, tails, rows, cols)
    assert values.dtype == np.uint32
    assert values.tolist() == [
        zlib.crc32(heads[row] + tails[col]) for row, col in cells
    ]


def per_cell(world, outcomes, config, seed):
    """``(missing cells, overrides, summary)`` drawn one cell at a time."""
    vps = world.collectors.all_vps()
    prefix_table = [
        (record.prefix, asn) for asn, record in world.graph.originations()
    ]
    drop_rate = 1.0 - config.vp_visibility
    missing = {
        (vp_index, prefix_index)
        for vp_index, vp in enumerate(vps)
        for prefix_index, (prefix, _) in enumerate(prefix_table)
        if _stable_uniform(seed, "vis", f"{vp.ip}|{prefix}") < drop_rate
    }
    planes = [
        {origin: dict(routes) for origin, routes in outcome.routes.items()}
        for outcome in outcomes
    ]
    cells, rolls = [], {}
    for vp_index, vp in enumerate(vps):
        plane = planes[zlib.crc32(f"plane:{vp.asn}".encode()) % len(planes)]
        for prefix_index, (prefix, origin) in enumerate(prefix_table):
            key = (vp_index, prefix_index)
            route = plane.get(origin, {}).get(vp.asn)
            if route is None or key in missing:
                continue
            cells.append((key, ASPath(route.path)))
            rolls[key] = _stable_uniform(seed, "anom", f"{vp.ip}|{prefix}")
    graph = world.graph
    clique = graph.clique()
    overrides, summary = inject_anomalies(
        cells, config.anomalies, clique,
        graph.asn_registry.unallocated_sample(16), graph.route_servers(),
        roll_for=rolls.__getitem__,
        seed_for=lambda key: zlib.crc32(
            f"{seed}:anom-rng:{vps[key[0]].ip}|{prefix_table[key[1]][0]}"
            .encode()
        ),
        filler_pool=[asn for asn in graph.asns() if asn not in clique],
    )
    return missing, overrides, summary


@pytest.mark.parametrize("name,planes", [("small", 2), ("default", 1)])
def test_series_draws_equal_per_cell_reference(name, planes):
    world = build_world(name, 5)
    config = PipelineConfig(seed=5)
    outcomes = [
        propagate_all(
            world.graph, keep=world.vp_asns(), tiebreak=config.tiebreak,
            salt=salt,
        )
        for salt in range(planes)
    ]
    series = generate_rib_days(world, outcomes, config.rib, 5)
    missing, overrides, summary = per_cell(world, outcomes, config.rib, 5)
    width = len(series.prefix_table)
    assert series._missing_keys.tolist() == sorted(
        vp * width + prefix for vp, prefix in missing
    )
    planted = series.overrides()
    assert planted == overrides
    assert list(planted) == list(overrides)
    assert series.injection_summary == summary
    assert summary.total() > 0


def test_ribs_stage_seeds_no_generator():
    """The ribs stage (visibility, churn, rolls and planting) calls no
    method of a Mersenne Twister: every draw is a CRC-32 of its key or
    a hash of one. The world generator and the geodb keep their own
    ``random.Random``: the world is built and propagated before the
    profiled stage, and the geodb is not part of it."""
    world = build_world("default", 42)
    config = PipelineConfig(seed=42)
    outcome = propagate_all(
        world.graph, keep=world.vp_asns(), tiebreak=config.tiebreak
    )
    calls = []

    def watch(frame, event, arg):
        if event == "c_call" and isinstance(
            getattr(arg, "__self__", None), _random.Random
        ):
            calls.append(arg.__qualname__)

    previous = sys.getprofile()
    sys.setprofile(watch)
    try:
        series = generate_rib_days(world, outcome, config.rib, 42)
    finally:
        sys.setprofile(previous)
    assert series.injection_summary.total() > 0
    assert calls == []
