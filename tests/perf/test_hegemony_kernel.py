"""The columnar hegemony kernel against the oracle and its own
invariants.

Its tables are held to the record-by-record estimator
(``tests/oracles/hegemony.py``) by the test matrix's rows
(``tests/oracles/matrix.py``): on wide-ASN and position-subset draws
here, and on every input of ``tests/oracles/test_matrix.py``. Here
too: the kernel's knobs — chunks of whole (group, VP) cells and the
two ways of numbering (cell, AS) pairs — change no bit of any table,
on generated record sets and on hand-built corners; the paper's
Figure 2 value; every entry point rejecting a bad trim or weighting
alike; AHC reading spilled columns only; and the window sums following
Python's ``sum``.
"""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ahc import AHC_WEIGHTINGS, ahc_ranking
from repro.core.hegemony import hegemony_ranking
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.core.views import View
from repro.perf import hegemony as kernel
from repro.perf.hegemony import _window_sums, hegemony_tables
from repro.perf.pathstore import PathStore, _LazyRecords
from repro.topology.catalog import build_world

from tests.oracles.inputs import (
    BACKENDS,
    CORNERS,
    EdgeOracle,
    as_table,
    build_store,
    record_sets,
    relabelled,
    wide_labels,
)
from tests.oracles.matrix import check_records

TRIMS = (0.0, 0.05, 0.1, 0.25, 0.49)
WEIGHTINGS = ("addresses", "prefixes")

#: kernel knobs that must change nothing: tiny chunks cut the records
#: at many cell boundaries; no bin budget numbers every chunk's pairs
#: with ``np.unique``
KNOBS = (
    {"CHUNK_RECORDS": 1},
    {"CHUNK_RECORDS": 3},
    {"DENSE_BINS_PER_PAIR": 0, "DENSE_BINS_FLOOR": 0},
)


def reprs(table):
    return {asn: repr(value) for asn, value in table.items()}


def tables(store, records, trim, weighting):
    """The whole-store table and one table per origin (AHC's local
    hegemony groups) from one kernel call each, as ``repr`` dicts."""
    everything = np.arange(len(records))
    origins = sorted({rec.origin for rec in records})
    groups = [
        np.array([p for p, rec in enumerate(records) if rec.origin == origin])
        for origin in origins
    ]
    return [
        reprs(as_table(table))
        for table in hegemony_tables(store, [everything], trim, weighting)
        + hegemony_tables(store, groups, trim, weighting)
    ]


def assert_knobs_change_nothing(records, trim, weighting, backend, directory):
    store = build_store(records, backend, directory)
    expected = tables(store, records, trim, weighting)
    for knobs in KNOBS:
        with patch.multiple(kernel, **knobs):
            assert tables(store, records, trim, weighting) == expected, knobs


def assert_matches_oracle(records, backend, positions=None):
    """The matrix's hegemony and AHC rows over the records' index
    views, or over the view at ``positions``: every table at every
    trim and weighting, local hegemony toward every origin, and the
    rankings, by ``repr``."""
    check_records(("hegemony", "ahc"), records, EdgeOracle(()), backend, positions)


class TestParity:
    @settings(max_examples=150, deadline=None)
    @given(
        drawn=record_sets(),
        trim=st.sampled_from(TRIMS),
        weighting=st.sampled_from(WEIGHTINGS),
        backend=st.sampled_from(BACKENDS),
    )
    def test_random_record_sets(self, drawn, trim, weighting, backend,
                                tmp_path_factory):
        """The knobs against the defaults on generated record sets."""
        assert_knobs_change_nothing(
            drawn[0], trim, weighting, backend, tmp_path_factory.mktemp("s"),
        )

    @settings(max_examples=80, deadline=None)
    @given(
        drawn=record_sets(),
        labels=wide_labels,
        backend=st.sampled_from(BACKENDS),
    )
    def test_wide_asns(self, drawn, labels, backend):
        """The drawn pool relabelled into random public 32-bit ASNs."""
        assert_matches_oracle(relabelled(drawn[0], labels), backend)

    @settings(max_examples=60, deadline=None)
    @given(drawn=record_sets(), backend=st.sampled_from(BACKENDS),
           data=st.data())
    def test_position_subsets(self, drawn, backend, data):
        """A view is every record or any ascending subset of the
        store's positions."""
        records = drawn[0]
        keep = data.draw(st.none() | st.lists(
            st.booleans(), min_size=len(records), max_size=len(records),
        ))
        assert_matches_oracle(
            records, backend, None if keep is None else np.flatnonzero(keep),
        )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("trim", TRIMS)
@pytest.mark.parametrize("weighting", WEIGHTINGS)
class TestCorners:
    """The knobs against the defaults on the hand-built corners of
    ``tests/oracles/inputs.py``."""

    def test_zero_weight_vp_does_not_count(self, backend, trim, weighting,
                                           tmp_path):
        records = CORNERS["zero_weight_vp"]
        assert_knobs_change_nothing(records, trim, weighting, backend, tmp_path)
        # VP .3's only record weighs 0: under address weighting it is no
        # VP at all, so AS 4 never enters the table
        [table] = hegemony_tables(
            PathStore(records), [np.arange(len(records))], trim, weighting,
        )
        assert (4 in as_table(table)) == (weighting == "prefixes")

    def test_repeated_asns_count_once(self, backend, trim, weighting, tmp_path):
        assert_knobs_change_nothing(
            CORNERS["repeated_asns"], trim, weighting, backend, tmp_path,
        )

    def test_single_vp(self, backend, trim, weighting, tmp_path):
        assert_knobs_change_nothing(
            CORNERS["single_vp"], trim, weighting, backend, tmp_path,
        )

    def test_many_vps_sum_in_order(self, backend, trim, weighting, tmp_path):
        # long trimmed windows cut by the tiny chunks at many cells
        assert_knobs_change_nothing(
            CORNERS["many_vps"], trim, weighting, backend, tmp_path,
        )

    def test_ipv6_address_counts(self, backend, trim, weighting, tmp_path):
        assert_knobs_change_nothing(
            CORNERS["ipv6_weights"], trim, weighting, backend, tmp_path,
        )


class TestFigure2:
    """The paper's three-VP example: AS 1 scores 1, 2/3 and 1/3 per VP;
    the 10% trim keeps the median, so its hegemony is 2/3."""

    RECORDS = CORNERS["figure2"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_hegemony_two_thirds(self, backend, tmp_path):
        store = build_store(self.RECORDS, backend, tmp_path)
        [table] = map(as_table, hegemony_tables(store, [np.arange(9)], 0.1))
        assert table[1] == pytest.approx(2 / 3)
        # the VP-side ASes are each on all paths of one VP only
        assert table[2] == table[3] == 0.0


class TestValidation:
    """The kernel and the ranking entry point reject alike."""

    @pytest.mark.parametrize("trim", [-0.01, 0.5, 0.6])
    def test_bad_trim_same_error(self, trim):
        store = PathStore(TestFigure2.RECORDS)
        with pytest.raises(ValueError) as ranking:
            hegemony_ranking(View("v", None, store), trim=trim)
        with pytest.raises(ValueError) as kernel:
            hegemony_tables(store, [np.arange(9)], trim)
        assert str(kernel.value) == str(ranking.value)

    def test_unknown_weighting_same_error(self):
        store = PathStore(TestFigure2.RECORDS)
        with pytest.raises(ValueError) as ranking:
            hegemony_ranking(View("v", None, store), weighting="users")
        with pytest.raises(ValueError) as kernel:
            hegemony_tables(store, [np.arange(9)], 0.1, weighting="users")
        assert str(kernel.value) == str(ranking.value)

    def test_empty_groups(self):
        store = PathStore(TestFigure2.RECORDS)
        empty = np.empty(0, dtype=np.int64)
        assert hegemony_tables(store, [], 0.1) == []
        assert [
            as_table(table)
            for table in hegemony_tables(store, [empty, empty], 0.1)
        ] == [{}, {}]


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
            weighting: repr(ahc_ranking(
                memory.view("global"), code, origins, 0.1, weighting
            ).entries)
            for weighting in AHC_WEIGHTINGS
        }

        def forbidden(self, *args):
            raise AssertionError("AHC materialised a spilled record")

        monkeypatch.setattr(_LazyRecords, "__getitem__", forbidden)
        monkeypatch.setattr(_LazyRecords, "__iter__", forbidden)
        view = spilled.view("global")
        for weighting in AHC_WEIGHTINGS:
            ranking = ahc_ranking(view, code, origins, 0.1, weighting)
            assert repr(ranking.entries) == expected[weighting]

    def test_view_hegemony_identical_across_backends(self, results):
        memory, spilled = results
        code = memory.countries_with_national_view()[0]
        for kind in ("national", "international", "outbound"):
            for weighting in WEIGHTINGS:
                base = as_table(memory.view(kind, code).computation().hegemony(
                    0.1, weighting
                ))
                got = as_table(spilled.view(kind, code).computation().hegemony(
                    0.1, weighting
                ))
                assert reprs(got) == reprs(base)


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
