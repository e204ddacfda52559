"""``ColumnBuilder.extend`` keys on one pass's table ids and interns by
value only at an id's first appearance: for any table whose paths may
clean to the same ASNs (a collapsed prepend and its clean original),
any windowing, and even when every path hash collides, its columns
equal :meth:`ColumnBuilder.add`'s record by record."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.bgp.collectors import VantagePoint
from repro.core.sanitize import PathRecord
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.perf import pathstore
from repro.perf.pathstore import COLUMNS, ColumnBuilder, PathStore

VPS = [
    (VantagePoint(f"10.0.0.{n}", 64500 + n, "rrc00"), "NL") for n in range(4)
]
PREFIXES = [
    (Prefix.parse(f"192.0.{n}.0/24"), "US", 256) for n in range(4)
]


@st.composite
def passes(draw):
    """``(clean, rows, windows)``: per table path its clean ASNs (few
    distinct values, so table paths share them), the rows as (VP,
    prefix, table path) ids, and where the rows are cut into windows."""
    values = draw(st.lists(
        st.lists(st.integers(1, 9), min_size=1, max_size=5).map(tuple),
        min_size=1, max_size=6,
    ))
    clean = draw(st.lists(st.sampled_from(values), min_size=1, max_size=12))
    rows = draw(st.lists(
        st.tuples(
            st.integers(0, len(VPS) - 1), st.integers(0, len(PREFIXES) - 1),
            st.integers(0, len(clean) - 1),
        ),
        max_size=40,
    ))
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=4)))
    return clean, rows, cuts


def extended(clean, rows, cuts):
    builder = ColumnBuilder()

    def clean_paths(ids):
        chosen = [clean[pid] for pid in ids.tolist()]
        return (
            np.asarray([asn for path in chosen for asn in path], dtype=np.int64),
            np.asarray([len(path) for path in chosen], dtype=np.int64),
        )

    for start, stop in zip([0] + cuts, cuts + [len(rows)]):
        block = np.asarray(rows[start:stop], dtype=np.int64).reshape(-1, 3)
        builder.extend(
            block[:, 0], block[:, 1], block[:, 2],
            lambda ids: [VPS[i] for i in ids.tolist()],
            lambda ids: [PREFIXES[i] for i in ids.tolist()],
            clean_paths,
        )
    return PathStore(builder=builder)


def added(clean, rows):
    return PathStore([
        PathRecord(
            VPS[vp][0], VPS[vp][1], PREFIXES[prefix][0], PREFIXES[prefix][1],
            ASPath(clean[path]), PREFIXES[prefix][2],
        )
        for vp, prefix, path in rows
    ])


def assert_same(store, expected):
    for name in COLUMNS:
        assert getattr(store, name).tolist() == getattr(expected, name).tolist()
    assert store.vp_table == expected.vp_table
    assert store.prefix_table == expected.prefix_table
    assert store.paths == expected.paths


@settings(max_examples=150, deadline=None)
@given(passes())
def test_extend_equals_add(case):
    clean, rows, cuts = case
    assert_same(extended(clean, rows, cuts), added(clean, rows))


@settings(max_examples=60, deadline=None)
@given(passes())
def test_colliding_hashes_are_settled_by_tokens(case):
    clean, rows, cuts = case
    original = pathstore._path_hashes

    def colliding(tokens, starts, lengths):
        return np.zeros_like(original(tokens, starts, lengths))

    pathstore._path_hashes = colliding
    try:
        store = extended(clean, rows, cuts)
    finally:
        pathstore._path_hashes = original
    assert_same(store, added(clean, rows))


def test_add_after_extend_shares_ids():
    builder = ColumnBuilder()
    builder.extend(
        np.asarray([0]), np.asarray([0]), np.asarray([0]),
        lambda ids: [VPS[0]], lambda ids: [PREFIXES[0]],
        lambda ids: (np.asarray([3, 5]), np.asarray([2])),
    )
    builder.add(PathRecord(
        VPS[1][0], VPS[1][1], PREFIXES[1][0], PREFIXES[1][1],
        ASPath((3, 5)), PREFIXES[1][2],
    ))
    store = PathStore(builder=builder)
    assert store.record_path.tolist() == [0, 0]
    assert store.paths == (ASPath((3, 5)),)
