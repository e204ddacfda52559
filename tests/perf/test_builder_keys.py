"""``ColumnBuilder.extend`` appends by key, with no lookup by value:
the Table-1 judge keys each passing path on the table id of its clean
value, so keys are equal exactly when clean values are. For record
streams in which several paths clean to one value, whose unchanged twin
comes before them, after them or never, in any windowing, the store
filled from the windows must equal :meth:`ColumnBuilder.add`'s, record
by record."""

import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bgp.announcement import record_windows
from repro.bgp.collectors import VantagePoint
from repro.core.sanitize import PathRecord, sanitize_windows
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.perf.pathstore import ColumnBuilder, PathStore
from repro.perf.spill import spill_windows

from tests.core.test_sanitize_oracle import FILTERS, oracle, same_store, twin_streams

VPS = [
    (VantagePoint(f"10.0.0.{n}", 64500 + n, "rrc00"), "NL") for n in range(4)
]
PREFIXES = [
    (Prefix.parse(f"192.0.{n}.0/24"), "US", 256) for n in range(4)
]


@settings(max_examples=150, deadline=None)
@given(twin_streams())
def test_extend_equals_add(case):
    records, size = case
    accepted, _ = oracle(records)
    same_store(
        sanitize_windows(record_windows(records, size), **FILTERS).store(),
        PathStore(accepted),
    )


@settings(max_examples=60, deadline=None)
@given(twin_streams(), st.data())
def test_a_resumed_spill_matches_new_keys_by_value(case, data):
    """A spill torn after a window and resumed holds paths no key of
    the resumed pass brought in: each new key's value is matched
    against them, so the store is still ``add``'s."""
    records, size = case
    assume(len(records) > size)
    tear = data.draw(st.integers(size, len(records) - 1))

    def torn():
        for index, record in enumerate(records):
            if index == tear:
                raise OSError("torn")
            yield record

    accepted, _ = oracle(records)
    with tempfile.TemporaryDirectory() as directory:
        with pytest.raises(OSError):
            spill_windows(
                record_windows(torn(), size), directory=directory,
                key="twins", **FILTERS,
            )
        resumed = spill_windows(
            record_windows(iter(records), size), directory=directory,
            key="twins", **FILTERS,
        )
        same_store(resumed.store(), PathStore(accepted))


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


def test_extend_after_add_matches_by_value():
    """A path no key brought in (here one ``add`` interned) is matched
    by value when a new key carries it; other keys' paths are
    appended."""
    values = {0: (7,), 1: (3, 5)}

    def path_columns(ids):
        chosen = [values[key] for key in ids.tolist()]
        return (
            np.asarray([asn for path in chosen for asn in path], dtype=np.int64),
            np.asarray([len(path) for path in chosen], dtype=np.int64),
        )

    builder = ColumnBuilder()
    builder.add(PathRecord(
        VPS[1][0], VPS[1][1], PREFIXES[1][0], PREFIXES[1][1],
        ASPath((3, 5)), PREFIXES[1][2],
    ))
    builder.extend(
        np.asarray([0, 0, 0]), np.asarray([0, 0, 0]), np.asarray([1, 0, 1]),
        lambda ids: [VPS[0]], lambda ids: [PREFIXES[0]], path_columns,
    )
    store = PathStore(builder=builder)
    assert store.record_path.tolist() == [0, 0, 1, 0]
    assert store.record_origin.tolist() == [5, 5, 7, 5]
    assert store.paths == (ASPath((3, 5)), ASPath((7,)))
