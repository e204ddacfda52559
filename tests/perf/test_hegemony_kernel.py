"""The columnar hegemony kernel must equal the reference estimator bit
for bit: every table :func:`repro.perf.hegemony.hegemony_tables` builds
from store columns is compared by ``repr`` against
:func:`repro.core.hegemony.hegemony_scores` / ``local_hegemony`` over
the same records, on an in-memory and an mmap-backed store."""

import tempfile
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.collectors import VantagePoint
from repro.core.ahc import AHC_WEIGHTINGS, ahc_scores, ahc_scores_cached
from repro.core.hegemony import hegemony_scores, local_hegemony
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.core.sanitize import FilterReport, PathRecord
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.perf import hegemony as kernel
from repro.perf.hegemony import _window_sums, hegemony_tables
from repro.perf.pathstore import PathStore
from repro.perf.spill import MmapPathStore, SpillWriter, _LazyRecords
from repro.topology.catalog import build_world

TRIMS = (0.0, 0.05, 0.1, 0.25, 0.49)
WEIGHTINGS = ("addresses", "prefixes")
#: per-prefix address counts: zero, small, and IPv6 counts past 2^64
ADDRESSES = (0, 1, 256, 768, 2 ** 64 + 3, 2 ** 96, 2 ** 100 + 1)


def record(vp_ip, path, prefix, addresses=256):
    return PathRecord(
        vp=VantagePoint(vp_ip, path[0], "c"),
        vp_country="US",
        prefix=Prefix.parse(prefix),
        prefix_country="US",
        path=ASPath(tuple(path)),
        addresses=addresses,
    )


def build_store(records, backend, directory):
    if backend == "memory":
        return PathStore(records)
    writer = SpillWriter(directory)
    report = FilterReport()
    writer.prepare(report)
    for rec in records:
        writer.add(rec)
    writer.seal(len(records), report)
    return MmapPathStore(directory)


def reprs(table):
    return {asn: repr(value) for asn, value in table.items()}


@st.composite
def record_sets(draw):
    """Small random record sets: up to twelve VPs, paths over a pool of
    eight ASNs (repeats allowed, adjacent or not), and prefixes whose
    address count is fixed per prefix, as sanitized records carry it."""
    prefix_addresses = draw(st.lists(
        st.sampled_from(ADDRESSES), min_size=1, max_size=6,
    ))
    vps = draw(st.integers(min_value=1, max_value=12))
    rows = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=vps - 1),
            st.lists(st.integers(min_value=1, max_value=8),
                     min_size=1, max_size=5),
            st.integers(min_value=0, max_value=len(prefix_addresses) - 1),
        ),
        min_size=1, max_size=60,
    ))
    return [
        record(f"10.0.0.{vp + 1}", path, f"10.{prefix}.0.0/16",
               prefix_addresses[prefix])
        for vp, path, prefix in rows
    ]


def assert_kernel_matches(records, trim, weighting, backend):
    with tempfile.TemporaryDirectory() as directory:
        store = build_store(records, backend, directory)
        everything = np.arange(len(records))
        [table] = hegemony_tables(store, [everything], trim, weighting)
        assert reprs(table) == reprs(hegemony_scores(records, trim, weighting))
        # per-origin groups in one call: AHC's local hegemony tables
        origins = sorted({rec.origin for rec in records})
        groups = [
            np.array([p for p, rec in enumerate(records) if rec.origin == origin])
            for origin in origins
        ]
        tables = hegemony_tables(store, groups, trim, weighting)
        for origin, got in zip(origins, tables):
            expected = hegemony_scores(
                [rec for rec in records if rec.origin == origin],
                trim, weighting,
            )
            assert reprs(got) == reprs(expected)
        if weighting == "addresses":
            for origin, got in zip(origins, tables):
                assert reprs(got) == reprs(local_hegemony(records, origin, trim))


class TestParity:
    @settings(max_examples=150, deadline=None)
    @given(
        records=record_sets(),
        trim=st.sampled_from(TRIMS),
        weighting=st.sampled_from(WEIGHTINGS),
        backend=st.sampled_from(("memory", "mmap")),
        binning=st.sampled_from(("direct", "unique")),
        chunk=st.sampled_from((kernel.CHUNK_RECORDS, 1, 3)),
    )
    def test_random_record_sets(self, records, trim, weighting, backend,
                                binning, chunk):
        # tiny chunks cut the records at many cell boundaries
        overrides = {"CHUNK_RECORDS": chunk}
        if binning == "unique":
            # no bin budget: every chunk numbers its pairs with np.unique
            overrides.update(DENSE_BINS_PER_PAIR=0, DENSE_BINS_FLOOR=0)
        with patch.multiple(kernel, **overrides):
            assert_kernel_matches(records, trim, weighting, backend)

    @settings(max_examples=60, deadline=None)
    @given(records=record_sets(), data=st.data())
    def test_position_subsets(self, records, data):
        """A view is any ascending subset of the store's positions."""
        keep = data.draw(st.lists(
            st.booleans(), min_size=len(records), max_size=len(records),
        ))
        positions = np.flatnonzero(keep)
        store = PathStore(records)
        [table] = hegemony_tables(store, [positions], 0.1)
        subset = [records[p] for p in positions]
        assert reprs(table) == reprs(hegemony_scores(subset, 0.1))


@pytest.mark.parametrize("backend", ["memory", "mmap"])
@pytest.mark.parametrize("trim", TRIMS)
@pytest.mark.parametrize("weighting", WEIGHTINGS)
class TestCorners:
    def test_zero_weight_vp_does_not_count(self, backend, trim, weighting):
        # VP .3's only record weighs 0: under address weighting it is no
        # VP at all (n = 2), so AS 4 never enters the table
        records = [
            record("10.0.0.1", [1, 2], "10.1.0.0/16", 256),
            record("10.0.0.2", [1, 3], "10.2.0.0/16", 256),
            record("10.0.0.3", [4, 2], "10.3.0.0/16", 0),
            record("10.0.0.1", [5], "10.3.0.0/16", 0),
        ]
        assert_kernel_matches(records, trim, weighting, backend)

    def test_repeated_asns_count_once(self, backend, trim, weighting):
        records = [
            record("10.0.0.1", [1, 1, 2], "10.1.0.0/16"),
            record("10.0.0.1", [1, 2, 1, 3], "10.2.0.0/16", 768),
            record("10.0.0.2", [7, 3, 7], "10.2.0.0/16", 768),
        ]
        assert_kernel_matches(records, trim, weighting, backend)

    def test_single_vp(self, backend, trim, weighting):
        records = [
            record("10.0.0.1", [9, 5, 8], "10.8.0.0/22", 768),
            record("10.0.0.1", [9, 7], "10.7.0.0/24", 256),
        ]
        assert_kernel_matches(records, trim, weighting, backend)

    def test_many_vps_sum_in_order(self, backend, trim, weighting):
        # 40 VPs with irregular shares for AS 1: long trimmed windows,
        # whose last bits depend on summing one value at a time (one
        # prefix per record, so each carries its own address count)
        records = []
        for vp in range(40):
            ip = f"10.0.1.{vp + 1}"
            records.append(record(ip, [100 + vp, 1, 2], f"10.{vp}.1.0/24",
                                  3 * 2 ** (vp % 7) + 1))
            records.append(record(ip, [100 + vp, 3], f"10.{vp}.2.0/24",
                                  7 * vp + 5))
            if vp % 3:
                records.append(record(ip, [100 + vp, 1, 4],
                                      f"10.{vp}.3.0/24", 11 * vp + 2))
        assert_kernel_matches(records, trim, weighting, backend)

    def test_ipv6_address_counts(self, backend, trim, weighting):
        records = [
            record("10.0.0.1", [1, 2], "10.1.0.0/16", 2 ** 96),
            record("10.0.0.1", [1, 3], "10.2.0.0/16", 2 ** 64 + 1),
            record("10.0.0.2", [4, 3], "10.2.0.0/16", 2 ** 64 + 1),
            record("10.0.0.2", [4, 2], "10.1.0.0/16", 2 ** 96),
        ]
        assert_kernel_matches(records, trim, weighting, backend)


class TestFigure2:
    """The paper's three-VP example: AS 1 scores 1, 2/3 and 1/3 per VP;
    the 10% trim keeps the median, so its hegemony is 2/3."""

    RECORDS = [
        record("10.0.0.1", [1, 8], "10.8.0.0/24"),
        record("10.0.0.1", [1, 9], "10.9.0.0/24"),
        record("10.0.0.1", [1, 7, 6], "10.6.0.0/24"),
        record("10.0.0.2", [2, 1, 8], "10.8.0.0/24"),
        record("10.0.0.2", [2, 1, 9], "10.9.0.0/24"),
        record("10.0.0.2", [2, 6], "10.6.0.0/24"),
        record("10.0.0.3", [3, 1, 8], "10.8.0.0/24"),
        record("10.0.0.3", [3, 9], "10.9.0.0/24"),
        record("10.0.0.3", [3, 6], "10.6.0.0/24"),
    ]

    @pytest.mark.parametrize("backend", ["memory", "mmap"])
    def test_hegemony_two_thirds(self, backend, tmp_path):
        store = build_store(self.RECORDS, backend, str(tmp_path))
        [table] = hegemony_tables(store, [np.arange(9)], 0.1)
        assert table[1] == pytest.approx(2 / 3)
        assert reprs(table) == reprs(hegemony_scores(self.RECORDS, 0.1))


class TestValidation:
    @pytest.mark.parametrize("trim", [-0.01, 0.5, 0.6])
    def test_bad_trim_same_error(self, trim):
        store = PathStore(TestFigure2.RECORDS)
        with pytest.raises(ValueError) as reference:
            hegemony_scores(TestFigure2.RECORDS, trim)
        with pytest.raises(ValueError) as kernel:
            hegemony_tables(store, [np.arange(9)], trim)
        assert str(kernel.value) == str(reference.value)

    def test_unknown_weighting_same_error(self):
        store = PathStore(TestFigure2.RECORDS)
        with pytest.raises(ValueError) as reference:
            hegemony_scores(TestFigure2.RECORDS, 0.1, weighting="users")
        with pytest.raises(ValueError) as kernel:
            hegemony_tables(store, [np.arange(9)], 0.1, weighting="users")
        assert str(kernel.value) == str(reference.value)

    def test_empty_groups(self):
        store = PathStore(TestFigure2.RECORDS)
        empty = np.empty(0, dtype=np.int64)
        assert hegemony_tables(store, [], 0.1) == []
        assert hegemony_tables(store, [empty, empty], 0.1) == [{}, {}]


class TestStoreBackends:
    """Through the pipeline: AHC on a spilled store reads columns only."""

    @pytest.fixture(scope="class")
    def results(self):
        world = build_world("small", 0)
        memory = run_pipeline(world, PipelineConfig(seed=0))
        spilled = run_pipeline(
            world, PipelineConfig(seed=0, store_backend="mmap")
        )
        yield memory, spilled
        spilled.close()

    def test_ahc_on_mmap_never_materialises_records(self, results,
                                                    monkeypatch):
        memory, spilled = results
        code = memory.countries_with_national_view()[0]
        origins = sorted(memory.world.graph.by_registry_country(code))
        expected = {
            weighting: ahc_scores(memory.paths.records, origins, 0.1, weighting)
            for weighting in AHC_WEIGHTINGS
        }

        def forbidden(self, index):
            raise AssertionError("AHC materialised a spilled record")

        monkeypatch.setattr(_LazyRecords, "__getitem__", forbidden)
        compute = spilled.computation("global")
        for weighting in AHC_WEIGHTINGS:
            got = ahc_scores_cached(compute, origins, 0.1, weighting)
            assert reprs(got) == reprs(expected[weighting])

    def test_view_hegemony_identical_across_backends(self, results):
        memory, spilled = results
        code = memory.countries_with_national_view()[0]
        for kind in ("national", "international", "outbound"):
            for weighting in WEIGHTINGS:
                base = memory.computation(kind, code).hegemony(0.1, weighting)
                got = spilled.computation(kind, code).hegemony(0.1, weighting)
                assert reprs(got) == reprs(base)
                assert reprs(base) == reprs(hegemony_scores(
                    memory.view(kind, code).records, 0.1, weighting
                ))


class TestWindowSums:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=30),
        min_size=1, max_size=12,
    ))
    def test_equals_python_sum(self, windows):
        """Each window is summed exactly as Python's ``sum`` would."""
        values = np.array([v for window in windows for v in window], dtype=float)
        lengths = np.array([len(window) for window in windows])
        first = np.cumsum(lengths) - lengths
        sums = _window_sums(values, first, lengths)
        assert [repr(s) for s in sums.tolist()] == [
            repr(sum(window, 0.0)) for window in windows
        ]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=30),
        min_size=1, max_size=12,
    ))
    def test_compensated_branch_follows_cpython(self, windows):
        """The Python 3.12+ branch against a transcription of CPython
        3.12's float ``sum`` loop (Neumaier), on any interpreter."""

        def neumaier(window):
            total, carry = 0.0, 0.0
            for term in window:
                added = total + term
                if abs(total) >= abs(term):
                    carry += (total - added) + term
                else:
                    carry += (term - added) + total
                total = added
            return total + carry if carry else total

        values = np.array([v for window in windows for v in window], dtype=float)
        lengths = np.array([len(window) for window in windows])
        first = np.cumsum(lengths) - lengths
        with patch.object(kernel, "_COMPENSATED", True):
            sums = _window_sums(values, first, lengths)
        assert [repr(s) for s in sums.tolist()] == [
            repr(neumaier(window)) for window in windows
        ]
