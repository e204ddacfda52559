"""One column builder behind both store backends: random record
sequences interned by ``PathStore(records)`` and by a ``SpillWriter``
that is torn mid-stream and resumed must hold the same columns and side
tables, and the resumed spill must be byte-identical to an untorn one."""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.collectors import VantagePoint
from repro.core.sanitize import FilterReport, PathRecord
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.perf.pathstore import COLUMNS, PathStore
from repro.perf.spill import MmapPathStore, SpillWriter

#: small entity pools, so drawn records repeat paths, VPs and prefixes
VPS = [
    (VantagePoint(ip, asn, collector), country)
    for ip, asn, collector, country in (
        ("10.0.0.1", 64500, "rrc00", "NL"),
        ("10.0.0.2", 64501, "rrc00", "US"),
        ("9.1.2.3", 64502, "route-views2", "US"),
        ("2001:db8::1", 64503, "rrc01", "JP"),
        ("2001:db8::2", 64504, "rrc01", "BR"),
    )
]
#: IPv6 prefixes own address counts above 2^64
PREFIXES = [
    (prefix, country, prefix.num_addresses())
    for prefix, country in (
        (Prefix.parse("192.0.2.0/24"), "NL"),
        (Prefix.parse("198.51.0.0/16"), "US"),
        (Prefix.parse("203.0.113.0/25"), "JP"),
        (Prefix.parse("2001:db8::/32"), "US"),
        (Prefix.parse("2001:db8:100::/48"), "BR"),
    )
]

paths = st.lists(
    st.integers(min_value=1, max_value=40), min_size=1, max_size=6
).map(lambda asns: ASPath(tuple(asns)))


@st.composite
def runs(draw):
    """``(records, flush_every, tear)``: a record sequence (possibly
    empty), the writer's flush cadence, and the input position the
    torn run crashes at."""
    pool = draw(st.lists(paths, min_size=1, max_size=8))
    picks = draw(st.lists(
        st.tuples(
            st.integers(0, len(VPS) - 1),
            st.integers(0, len(PREFIXES) - 1),
            st.integers(0, len(pool) - 1),
        ),
        max_size=60,
    ))
    records = []
    for vp_id, prefix_id, path_id in picks:
        vp, vp_country = VPS[vp_id]
        prefix, prefix_country, addresses = PREFIXES[prefix_id]
        records.append(PathRecord(
            vp=vp, vp_country=vp_country, prefix=prefix,
            prefix_country=prefix_country, path=pool[path_id],
            addresses=addresses,
        ))
    flush_every = draw(st.integers(min_value=1, max_value=25))
    tear = draw(st.integers(min_value=0, max_value=len(records)))
    return records, flush_every, tear


def ingest(writer, records, start=0):
    """Feed ``records[start:]`` the way ``spill_windows`` does:
    one add per record, the consumed position at each checkpoint."""
    report = FilterReport()
    consumed = writer.prepare(report)
    assert consumed == start
    for position in range(start, len(records)):
        writer.add(records[position])
        writer.maybe_checkpoint(position + 1, report)
    return report


def spill_bytes(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@settings(max_examples=60, deadline=None)
@given(runs())
def test_memory_and_resumed_spill_hold_the_same_columns(run):
    records, flush_every, tear = run
    memory = PathStore(records)
    with tempfile.TemporaryDirectory() as scratch:
        clean, torn = Path(scratch, "clean"), Path(scratch, "torn")
        writer = SpillWriter(clean, flush_every=flush_every)
        writer.seal(len(records), ingest(writer, records))

        crashed = SpillWriter(torn, flush_every=flush_every)
        ingest(crashed, records[:tear])
        # the crash loses the unflushed buffers and tears a write past
        # the last checkpoint
        for name in ("tokens.i64", "record_path.i64", "vps.jsonl"):
            with open(torn / name, "ab") as handle:
                handle.write(b"\x07torn")
        checkpointed = tear - tear % flush_every
        resumed = SpillWriter(torn, flush_every=flush_every)
        resumed.seal(len(records), ingest(resumed, records, checkpointed))

        assert spill_bytes(torn) == spill_bytes(clean)
        mapped = MmapPathStore(torn)
        for name in COLUMNS:
            assert (
                getattr(mapped, name).tolist()
                == getattr(memory, name).tolist()
            ), name
        assert mapped.vp_table == memory.vp_table
        assert mapped.prefix_table == memory.prefix_table
        assert mapped.paths == memory.paths
        assert list(mapped.record_addresses) == list(memory.record_addresses)
