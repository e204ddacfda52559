"""The record tables own path identity: a table holds each path value
once, and its ``intern`` answers the id of any value — a table path's
own id, appending nothing; the id a dict over the table gives for a
path's clean value; a new id, once, for a value the table lacks.

Checked on the RIB series' tables (``small`` at seeds 0–3, ``default``
at 0 and 42, and ``default`` at 42 over two routing planes), and on
the tables :func:`~repro.bgp.announcement.record_windows` interns from
generated record streams.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.announcement import RibRecord, record_windows
from repro.bgp.propagation import propagate_all
from repro.bgp.rib import RibGenerationConfig, generate_rib_days
from repro.net.aspath import ASPath
from repro.topology.catalog import build_world

from tests.core.test_sanitize_oracle import (
    PREFIXES, ROUTE_SERVERS, VPS, record_streams, twin_streams,
)

#: (world, seed, routing planes) of each RIB series checked
SERIES = [
    ("small", 0, 1), ("small", 1, 1), ("small", 2, 1), ("small", 3, 1),
    ("default", 0, 1), ("default", 42, 1), ("default", 42, 2),
]


def values(paths):
    """Every table path's ASN tuple, in id order."""
    tokens = paths.tokens.tolist()
    return [
        tuple(tokens[start:start + length])
        for start, length in zip(paths.offsets.tolist(), paths.lengths.tolist())
    ]


def columns(paths):
    """ASN tuples as ``(tokens, lengths)`` columns."""
    return (
        np.asarray([asn for path in paths for asn in path], dtype=np.int64),
        np.asarray([len(path) for path in paths], dtype=np.int64),
    )


def cleaned(asns, servers):
    """A path's clean value: prepends collapsed, route servers
    removed."""
    collapsed = [
        asn for at, asn in enumerate(asns) if at == 0 or asns[at - 1] != asn
    ]
    return tuple(asn for asn in collapsed if asn not in servers)


def check_tables(tables, dirty, servers, unknown):
    """The table contract on one tables object: ``dirty`` are paths
    whose clean values are interned, ``unknown`` values no table path
    holds."""
    paths = tables.paths
    held = values(paths)
    assert len(set(held)) == len(held)
    # every table path answers its own id, and nothing is appended
    assert tables.intern(paths.tokens, paths.lengths).tolist() == list(
        range(len(held))
    )
    assert values(paths) == held
    # clean values: what a dict over the table gives, values it lacks
    # appended in order
    reference = {value: pid for pid, value in enumerate(held)}
    clean = [value for value in (cleaned(path, servers) for path in dirty) if value]
    expected = [reference.setdefault(value, len(reference)) for value in clean]
    assert tables.intern(*columns(clean)).tolist() == expected
    assert values(paths) == list(reference)
    # a value no table path holds: a new id once, the same id again
    for value in unknown:
        assert value not in reference
        pid = reference[value] = len(reference)
        assert tables.intern(*columns([value])).tolist() == [pid]
        assert tables.intern(*columns([value, value])).tolist() == [pid, pid]
        assert values(paths) == list(reference)


@pytest.fixture(
    scope="module", params=SERIES,
    ids=[f"{name}@{seed}x{planes}" for name, seed, planes in SERIES],
)
def series(request):
    name, seed, planes = request.param
    world = build_world(name, seed)
    outcomes = [
        propagate_all(world.graph, keep=world.vp_asns(), salt=salt)
        for salt in range(planes)
    ]
    return world, generate_rib_days(world, outcomes, RibGenerationConfig(), seed)


def test_rib_series_tables(series):
    world, ribs = series
    tables = next(ribs.windows()).tables
    assert tables is ribs._tables
    planted = [path.asns for path in ribs.overrides().values()]
    assert planted
    # an unallocated ASN after a clean path's origin (no route ends
    # there), inside it, and in place of its second AS (the route of
    # its ends holds another value, of another length or the same)
    outside = world.graph.asn_registry.unallocated_sample(1)[0]
    clean = next(value for value in values(tables.paths) if len(value) >= 3)
    check_tables(
        tables, planted, world.graph.route_servers(),
        [
            clean + (outside,), clean[:1] + (outside,) + clean[1:],
            clean[:1] + (outside,) + clean[2:],
        ],
    )


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        record_streams().flatmap(
            lambda records: st.tuples(
                st.just(records), st.integers(1, max(len(records), 1))
            )
        ),
        twin_streams(),
    )
)
def test_record_window_tables(case):
    records, size = case
    windows = list(record_windows(records, size))
    if not windows:
        return
    check_tables(
        windows[0].tables, [record.path.asns for record in records],
        ROUTE_SERVERS, [(123_456, 654_321)],
    )


def test_a_stream_carries_an_interned_value_at_its_id():
    """A growing table learns a value before any record carries it:
    a later window's row reads the interned id."""
    records = [
        RibRecord(VPS[0], PREFIXES[0], ASPath(asns), 5, 5)
        for asns in ((1, 1, 2), (1, 2))
    ]
    windows = record_windows(records, 1)
    first = next(windows)
    assert first.tables.intern(*columns([(1, 2)])).tolist() == [1]
    assert next(windows).path.tolist() == [1]
    assert values(first.tables.paths) == [(1, 1, 2), (1, 2)]
