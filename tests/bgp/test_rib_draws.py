"""The RIB series' grid draws against one ``zlib.crc32`` per cell.

:func:`repro.bgp.rib.crc32_grid` computes a whole draw grid from
CRC-32's affinity; the series reads visibility and anomaly rolls from
it. The reference below is the per-cell definition: a
``_stable_uniform`` per (VP, prefix) cell for visibility and the roll,
the clean path of every carried cell from the routes' façade, and the
record-keyed RNG — so the missing cells, the planted overrides and the
injection summary must come out equal.
"""

import random
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.anomalies import inject_anomalies
from repro.bgp.propagation import propagate_all
from repro.bgp.rib import _stable_uniform, crc32_grid, generate_rib_days
from repro.core.pipeline import PipelineConfig
from repro.net.aspath import ASPath
from repro.topology.catalog import build_world

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
        random.Random(seed),
        filler_pool=[asn for asn in graph.asns() if asn not in clique],
        roll_for=rolls.__getitem__,
        rng_for=lambda key: random.Random(zlib.crc32(
            f"{seed}:anom-rng:{vps[key[0]].ip}|{prefix_table[key[1]][0]}"
            .encode()
        )),
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
    assert series.overrides == overrides
    assert list(series.overrides) == list(overrides)
    assert series.injection_summary == summary
    assert summary.total() > 0
