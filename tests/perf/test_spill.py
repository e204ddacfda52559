"""The mmap-backed spill store must be invisible: rankings, interned
suffixes, and index buckets computed over it must be value-identical
to the in-memory backend, a crash mid-ingestion must resume to a
byte-identical spill, a spill must be reused only for the input that
wrote it, and a damaged spill must fail with a typed error, whether it
is opened or resumed."""

import json
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import PipelineConfig, run_pipeline
from repro.bgp.announcement import record_windows
from repro.cli import main as repro_rank
from repro.core.registry import get_spec
from repro.core.sanitize import FilterReport
from repro.geo.database import GeoDatabase
from repro.geo.prefix_geo import geolocate_prefixes
from repro.geo.vp_geo import VPGeolocator
from repro.perf.index import PathIndex
from repro.perf.pathstore import COLUMNS
from repro.perf.spill import (
    FLUSH_EVERY,
    MmapPathStore,
    SpillFormatError,
    SpillWriter,
    open_spill,
    spill_windows,
)
from repro.topology.catalog import build_world

#: a cross-family spot-check sweep — four metric families, the four
#: countries the paper's case studies use
METRICS = ("CCI", "AHN", "AHC", "CTI")
COUNTRIES = ("US", "NL", "JP", "BR")
#: the key the tests' spills are written under (the pipeline passes its
#: run's store_key)
KEY = "small@0"


@pytest.fixture(scope="module")
def world():
    return build_world("default", 0)


@pytest.fixture(scope="module")
def memory_result(world):
    result = run_pipeline(world, PipelineConfig(seed=0))
    yield result
    result.close()


@pytest.fixture(scope="module")
def mmap_result(world):
    result = run_pipeline(world, PipelineConfig(seed=0, store_backend="mmap"))
    yield result
    result.close()


def _sanitize_inputs(world, seed=0):
    """The (records, kwargs) the pipeline hands to sanitization, built
    stage by stage so tests can drive ``spill_windows`` directly."""
    from repro.bgp.propagation import propagate_all
    from repro.bgp.rib import RibGenerationConfig, generate_rib_days

    outcome = propagate_all(
        world.graph, keep=world.vp_asns(), tiebreak="hash", salt=0
    )
    ribs = generate_rib_days(world, [outcome], RibGenerationConfig(), seed)
    geodb = GeoDatabase.from_world(world, 0.02, 0.005, seed + 1, 4)
    prefix_geo = geolocate_prefixes(
        world.announced_prefixes(), geodb, 0.5, version=4
    )
    records = [r for r in ribs.records() if r.prefix.version == 4]
    kwargs = dict(
        clique=world.graph.clique(),
        is_allocated=world.graph.asn_registry.is_allocated,
        route_servers=world.graph.route_servers(),
        vp_geo=VPGeolocator(world.collectors),
        prefix_geo=prefix_geo,
    )
    return records, kwargs


class TestBackendParity:
    def test_filter_reports_identical(self, memory_result, mmap_result):
        assert (
            memory_result.paths.report.render()
            == mmap_result.paths.report.render()
        )
        assert len(memory_result.paths.records) == len(mmap_result.paths.records)

    def test_records_identical(self, memory_result, mmap_result):
        records = memory_result.paths.records
        lazy = mmap_result.paths.records
        assert list(lazy[:100]) == list(records[:100])
        assert lazy[-1] == records[-1]
        assert lazy[len(lazy) // 2] == records[len(records) // 2]

    def test_rankings_byte_identical(self, memory_result, mmap_result):
        baseline = memory_result.rank_all(METRICS, COUNTRIES)
        spilled = mmap_result.rank_all(METRICS, COUNTRIES)
        assert baseline.keys() == spilled.keys()
        for key, ranking in baseline.items():
            assert spilled[key].entries == ranking.entries, key
            assert (
                spilled[key].render(10, mmap_result.as_name)
                == ranking.render(10, memory_result.as_name)
            ), key

    def test_transit_suffixes_identical(self, memory_result, mmap_result):
        edges = memory_result.oracle.p2c_edges()
        baseline = memory_result.paths.store().transit_suffixes(edges)
        spilled = mmap_result.paths.store().transit_suffixes(edges)
        assert baseline.suffixes == spilled.suffixes
        for column in ("path_suffix", "hop_offsets", "hop_asn", "hop_k", "asns"):
            assert (
                getattr(baseline, column).tolist()
                == getattr(spilled, column).tolist()
            ), column

    def test_index_buckets_identical(self, memory_result, mmap_result):
        baseline = PathIndex.from_paths(memory_result.paths)
        spilled = PathIndex.from_paths(mmap_result.paths)
        base_pairs = baseline._by_pair
        spill_pairs = spilled._by_pair
        assert list(base_pairs) == list(spill_pairs)  # first-appearance order
        for pair in base_pairs:
            assert list(spill_pairs[pair]) == list(base_pairs[pair]), pair

    def test_store_columns_identical(self, memory_result, mmap_result):
        dense = memory_result.paths.store()
        mapped = mmap_result.paths.store()
        assert isinstance(mapped, MmapPathStore)
        for column in ("tokens", "offsets", "lengths", "record_path",
                       "record_origin", "record_vp", "record_prefix"):
            assert (
                [int(v) for v in getattr(mapped, column)]
                == [int(v) for v in getattr(dense, column)]
            ), column
        assert list(mapped.record_weight) == list(dense.record_weight)
        assert mapped.vp_table == dense.vp_table
        assert mapped.prefix_table == dense.prefix_table
        assert mapped.paths == dense.paths


class TestCrashResume:
    """A torn ingestion resumes from its last checkpoint — which falls
    on a window boundary — to a spill byte-identical to a clean one.
    Each test asserts the torn run really left a checkpoint, so a tear
    that silently restarts from scratch cannot pass."""

    FLUSH = 500

    @pytest.fixture(scope="class")
    def inputs(self):
        return _sanitize_inputs(build_world("small", 0))

    @pytest.fixture(scope="class")
    def clean(self, inputs, tmp_path_factory):
        records, kwargs = inputs
        directory = tmp_path_factory.mktemp("clean")
        return self._ingest(records, kwargs, directory), directory

    def _ingest(self, records, kwargs, directory, **extra):
        return spill_windows(
            record_windows(iter(records), self.FLUSH),
            directory=str(directory), key=KEY, **kwargs, **extra,
        )

    def _spill_bytes(self, directory):
        return {
            path.name: path.read_bytes()
            for path in sorted(directory.iterdir())
            if path.name != "progress.json"  # removed on seal
        }

    def _tear_and_resume(self, inputs, clean, directory, crash_after):
        """Crash the ingestion when input record ``crash_after`` is
        pulled, check the checkpoint it left, then resume."""
        records, kwargs = inputs
        assert crash_after < len(records)

        def torn_stream():
            for index, record in enumerate(records):
                if index == crash_after:
                    raise OSError("injected crash")
                yield record

        with pytest.raises(OSError):
            self._ingest(torn_stream(), kwargs, directory)
        assert not (directory / "manifest.json").exists()
        progress = json.loads((directory / "progress.json").read_text())
        # checkpoints fall at window ends: the last full window before
        # the tear
        assert progress["consumed"] > 0
        assert progress["consumed"] == crash_after - crash_after % self.FLUSH
        resumed = self._ingest(records, kwargs, directory)
        clean_set, clean_dir = clean
        assert self._spill_bytes(directory) == self._spill_bytes(clean_dir)
        assert resumed.report.total == clean_set.report.total
        assert resumed.report.accepted == clean_set.report.accepted
        assert resumed.report.rejected == clean_set.report.rejected
        assert list(resumed.records[:50]) == list(clean_set.records[:50])

    def test_resume_is_byte_identical(self, inputs, clean, tmp_path):
        records, _ = inputs
        self._tear_and_resume(inputs, clean, tmp_path / "torn", len(records) // 2)

    def test_tear_at_window_boundary_resumes(self, inputs, clean, tmp_path):
        self._tear_and_resume(inputs, clean, tmp_path / "torn", 2 * self.FLUSH)

    def test_tear_mid_window_resumes(self, inputs, clean, tmp_path):
        self._tear_and_resume(
            inputs, clean, tmp_path / "torn", 2 * self.FLUSH + self.FLUSH // 2
        )

    def test_reopen_sealed_spill(self, inputs, tmp_path):
        records, kwargs = inputs
        first = self._ingest(records, kwargs, tmp_path / "spill")
        again = open_spill(str(tmp_path / "spill"))
        assert len(again.records) == len(first.records)
        assert again.report.total == first.report.total
        # a second spill_windows on a sealed directory reopens it
        # without consuming the input stream at all
        def exploding():
            raise AssertionError("sealed spill must not re-ingest")
            yield  # pragma: no cover

        reopened = self._ingest(exploding(), kwargs, tmp_path / "spill")
        assert len(reopened.records) == len(first.records)

    def test_open_rejects_unsealed_directory(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{}")
        with pytest.raises(SpillFormatError):
            MmapPathStore(str(tmp_path))


class TestSpillKey:
    """A spill directory is reopened or resumed only for the input that
    wrote it: one stamped with another key, or with none, raises a
    SpillFormatError naming both keys, and ``repro-rank`` turns that,
    like any damaged ``--spill-dir``, into one line and exit status 2."""

    @pytest.fixture(scope="class")
    def inputs(self):
        return _sanitize_inputs(build_world("small", 0))

    def ingest(self, inputs, directory, key, records=None):
        every, kwargs = inputs
        return spill_windows(
            record_windows(iter(every if records is None else records), 500),
            directory=str(directory), key=key, **kwargs,
        )

    def test_sealed_spill_of_another_key_is_refused(self, inputs, tmp_path):
        first = self.ingest(inputs, tmp_path, "seed-0")
        with pytest.raises(
            SpillFormatError, match="manifest.json.*'seed-0'.*'seed-1'"
        ):
            self.ingest(inputs, tmp_path, "seed-1")
        again = self.ingest(inputs, tmp_path, "seed-0")
        assert list(again.records) == list(first.records)

    def test_torn_spill_of_another_key_is_refused(self, inputs, tmp_path):
        records, _ = inputs

        def torn_stream():
            yield from records[: len(records) // 2]
            raise OSError("injected crash")

        torn = tmp_path / "torn"
        with pytest.raises(OSError):
            self.ingest(inputs, torn, "seed-0", torn_stream())
        with pytest.raises(
            SpillFormatError, match="progress.json.*'seed-0'.*'seed-1'"
        ):
            self.ingest(inputs, torn, "seed-1")
        resumed = self.ingest(inputs, torn, "seed-0")
        clean = self.ingest(inputs, tmp_path / "clean", "seed-0")
        assert resumed.report.total == clean.report.total
        assert list(resumed.records) == list(clean.records)

    def test_unkeyed_spill_is_refused(self, inputs, tmp_path):
        """A spill sealed by a writer without a key opens with
        ``open_spill``, but no keyed ingestion reuses it."""
        writer = SpillWriter(tmp_path)
        report = FilterReport()
        writer.prepare(report)
        writer.seal(0, report)
        with pytest.raises(SpillFormatError, match="None.*'seed-0'"):
            self.ingest(inputs, tmp_path, "seed-0")
        assert len(open_spill(tmp_path).records) == 0

    def rank(self, spill, seed):
        return repro_rank([
            "--world", "small", "--seed", str(seed), "--store", "mmap",
            "--spill-dir", str(spill), "filter",
        ])

    def assert_one_line_error(self, capsys, text):
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("repro-rank: error: ") and err.count("\n") == 1
        assert text in err

    def test_cli_refuses_another_seeds_spill(self, tmp_path, capsys):
        spill = tmp_path / "spill"
        assert self.rank(spill, 0) == 0
        table = capsys.readouterr().out
        assert self.rank(spill, 1) == 2
        self.assert_one_line_error(capsys, "manifest.json")
        assert self.rank(spill, 0) == 0
        assert capsys.readouterr().out == table

    def test_cli_damaged_spill_exits_2(self, tmp_path, capsys):
        spill = tmp_path / "spill"
        assert self.rank(spill, 0) == 0
        capsys.readouterr()
        manifest = json.loads((spill / "manifest.json").read_text())
        del manifest["records"]
        (spill / "manifest.json").write_text(json.dumps(manifest))
        assert self.rank(spill, 0) == 2
        self.assert_one_line_error(capsys, "no 'records' count")


#: values a damaged JSON field may hold instead of its own
RETYPED = st.sampled_from(
    ("", "1.3.0.#1", "x", -1, 1.9, None, True, [], {"x": 1}, 2**64)
)
INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
SPILL_FILES = (
    *(f"{name}.i64" for name in COLUMNS),
    "vps.jsonl", "prefixes.jsonl", "manifest.json",
)
MANIFEST_FIELDS = (
    "format", "version", "records", "paths", "tokens", "vps", "prefixes",
    "report", "report.total", "report.accepted", "report.rejected",
    "report.rejected.loop",
)
#: (kind, target, where, value), applied by :func:`apply_damage`; for a
#: side-table row, ``kind`` names the table and ``target`` picks the
#: field. ``where`` is reduced modulo the size of what it indexes once
#: the spill is on disk
DAMAGES = st.one_of(
    st.tuples(
        st.just("flip"), st.sampled_from(SPILL_FILES),
        st.integers(min_value=0), st.integers(1, 255),
    ),
    st.tuples(
        st.just("truncate"), st.sampled_from(SPILL_FILES),
        st.integers(min_value=0), st.none(),
    ),
    st.tuples(
        st.just("manifest"), st.sampled_from(MANIFEST_FIELDS),
        st.none(), RETYPED,
    ),
    st.tuples(
        st.sampled_from(("vps.jsonl", "prefixes.jsonl")),
        st.integers(0, 3), st.integers(min_value=0), RETYPED,
    ),
    st.tuples(
        st.just("column"), st.sampled_from(COLUMNS),
        st.integers(min_value=0), INT64,
    ),
)


#: damage to the Table-1 counts a manifest or checkpoint holds: each
#: count must be a non-negative int, the reject categories exactly
#: REJECT_CATEGORIES, and ``total`` their sum plus ``accepted``
REPORT_DAMAGES = {
    "fractional-total": lambda report: report.update(total=1.9),
    "negative-accepted": lambda report: report.update(accepted=-5),
    "boolean-count": lambda report: report["rejected"].update(loop=True),
    "string-count": lambda report: report["rejected"].update(loop="7"),
    "missing-category": lambda report: report["rejected"].pop("loop"),
    "unknown-category": lambda report: report["rejected"].update(leak=0),
    "counts-off-by-one": lambda report: report.update(total=report["total"] + 1),
}


class TestDamagedSpill:
    """Every way a sealed spill can be damaged on disk surfaces as a
    SpillFormatError naming the damaged file, at open time."""

    @pytest.fixture(scope="class")
    def sealed(self, tmp_path_factory):
        records, kwargs = _sanitize_inputs(build_world("small", 0))
        directory = tmp_path_factory.mktemp("sealed")
        spill_windows(
            record_windows(records, FLUSH_EVERY), directory=str(directory),
            key=KEY, **kwargs,
        )
        return directory

    @pytest.fixture
    def spill(self, sealed, tmp_path):
        copy = tmp_path / "spill"
        shutil.copytree(sealed, copy)
        return copy

    def assert_rejected(self, spill, damaged):
        with pytest.raises(SpillFormatError, match=damaged):
            open_spill(str(spill))

    def test_missing_column_file(self, spill):
        (spill / "record_prefix.i64").unlink()
        self.assert_rejected(spill, "record_prefix.i64")

    def test_garbage_manifest(self, spill):
        (spill / "manifest.json").write_text("{not json", encoding="utf-8")
        self.assert_rejected(spill, "manifest.json")

    def test_garbage_prefix_table(self, spill):
        (spill / "prefixes.jsonl").write_text("\x00garbage\n", encoding="utf-8")
        self.assert_rejected(spill, "prefixes.jsonl")

    def test_missing_vp_table(self, spill):
        (spill / "vps.jsonl").unlink()
        self.assert_rejected(spill, "vps.jsonl")

    def test_side_table_row_count_checked(self, spill):
        manifest = json.loads((spill / "manifest.json").read_text())
        manifest["vps"] += 1
        (spill / "manifest.json").write_text(json.dumps(manifest))
        self.assert_rejected(spill, "vps.jsonl")

    def test_offset_past_the_tokens(self, spill):
        corrupt_offset(spill)
        self.assert_rejected(spill, "offsets.i64")

    def test_zero_path_length(self, spill):
        corrupt_length(spill)
        self.assert_rejected(spill, "lengths.i64")

    def test_record_vp_past_the_vp_table(self, spill):
        rewrite_column(spill, "record_vp", lambda ids: ids.put(0, 10**6))
        self.assert_rejected(spill, "record_vp.i64")

    def test_negative_record_prefix(self, spill):
        rewrite_column(spill, "record_prefix", lambda ids: ids.put(0, -5))
        self.assert_rejected(spill, "record_prefix.i64")

    def test_record_path_past_the_paths(self, spill):
        rewrite_column(spill, "record_path", lambda ids: ids.put(-1, 10**9))
        self.assert_rejected(spill, "record_path.i64")

    def test_non_integer_addresses(self, spill):
        rewrite_row(spill / "prefixes.jsonl", 0, "addresses", "x")
        self.assert_rejected(spill, "prefixes.jsonl")

    @pytest.mark.parametrize("field,value", [
        ("ip", ""), ("ip", "1.3.0.#1"), ("ip", 7), ("asn", 1.9),
        ("asn", -1), ("collector", None), ("country", ["AU"]),
    ])
    def test_bad_vp_row(self, spill, field, value):
        rewrite_row(spill / "vps.jsonl", 0, field, value)
        self.assert_rejected(spill, "vps.jsonl")

    @pytest.mark.parametrize("field,value", [("prefix", 5), ("country", 5)])
    def test_bad_prefix_row(self, spill, field, value):
        rewrite_row(spill / "prefixes.jsonl", 0, field, value)
        self.assert_rejected(spill, "prefixes.jsonl")

    @pytest.mark.parametrize("damage", REPORT_DAMAGES.values(), ids=REPORT_DAMAGES)
    def test_bad_report_counts(self, spill, damage):
        path = spill / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        damage(manifest["report"])
        path.write_text(json.dumps(manifest), encoding="utf-8")
        self.assert_rejected(spill, "manifest.json")

    @settings(
        max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(damage=DAMAGES)
    def test_any_damage_fails_typed_or_not_at_all(
        self, sealed, tmp_path, damage
    ):
        """A damaged spill either opens and ranks, or raises
        SpillFormatError — never another exception, at open or later."""
        spill = tmp_path / "fuzzed"
        shutil.rmtree(spill, ignore_errors=True)
        shutil.copytree(sealed, spill)
        apply_damage(spill, damage)
        try:
            paths = open_spill(str(spill))
        except SpillFormatError:
            return
        index = PathIndex.from_paths(paths)
        index.view("global").vps()
        for kind, metric in (("national", "AHN"), ("international", "AHI")):
            view = index.view(kind, "US")
            view.vps()
            get_spec(metric).rank(view, "US", None, PipelineConfig().trim)


def apply_damage(spill, damage):
    kind, target, where, value = damage
    if kind in ("flip", "truncate"):
        path = spill / target
        data = bytearray(path.read_bytes())
        if not data:
            return
        if kind == "flip":
            data[where % len(data)] ^= value
        else:
            del data[where % len(data):]
        path.write_bytes(bytes(data))
    elif kind == "manifest":
        path = spill / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        *parents, leaf = target.split(".")
        owner = manifest
        for key in parents:
            owner = owner[key]
        owner[leaf] = value
        path.write_text(json.dumps(manifest), encoding="utf-8")
    elif kind == "column":
        rewrite_column(spill, target, lambda ids: ids.put(where % len(ids), value))
    else:
        path = spill / kind
        rows = path.read_text(encoding="utf-8").splitlines()
        row = json.loads(rows[where % len(rows)])
        rewrite_row(path, where % len(rows), sorted(row)[target % len(row)], value)


def rewrite_row(path, index, field, value):
    """Set one field of one side-table row."""
    lines = path.read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[index])
    row[field] = value
    lines[index] = json.dumps(row, sort_keys=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def rewrite_column(spill, name, change):
    """Rewrite one int64 column file in place, its size unchanged."""
    path = spill / f"{name}.i64"
    column = np.fromfile(path, dtype=np.int64)
    change(column)
    column.tofile(path)


def corrupt_offset(spill):
    """Point the last path's offset past the end of the token column."""
    tokens = len(np.fromfile(spill / "tokens.i64", dtype=np.int64))
    rewrite_column(spill, "offsets", lambda offsets: offsets.put(-1, tokens + 5))


def corrupt_length(spill):
    """Give the first path length 0."""
    rewrite_column(spill, "lengths", lambda lengths: lengths.put(0, 0))


class TestDamagedResume:
    """A torn spill whose checkpoint or side tables are damaged fails to
    resume with a SpillFormatError naming the damaged file."""

    @pytest.fixture(scope="class")
    def inputs(self):
        return _sanitize_inputs(build_world("small", 0))

    @pytest.fixture(scope="class")
    def torn(self, inputs, tmp_path_factory):
        records, kwargs = inputs
        directory = tmp_path_factory.mktemp("torn")

        def torn_stream():
            yield from records[: len(records) // 2]
            raise OSError("injected crash")

        with pytest.raises(OSError):
            spill_windows(
                record_windows(torn_stream(), 500), directory=str(directory),
                key=KEY, **kwargs,
            )
        assert (directory / "progress.json").exists()
        return directory

    @pytest.fixture
    def spill(self, torn, tmp_path):
        copy = tmp_path / "spill"
        shutil.copytree(torn, copy)
        return copy

    def assert_resume_rejected(self, inputs, spill, damaged):
        records, kwargs = inputs
        with pytest.raises(SpillFormatError, match=damaged):
            spill_windows(
                record_windows(records, 500), directory=str(spill), key=KEY,
                **kwargs,
            )

    def rewrite_progress(self, spill, change):
        path = spill / "progress.json"
        progress = json.loads(path.read_text(encoding="utf-8"))
        change(progress)
        path.write_text(json.dumps(progress), encoding="utf-8")

    def rewrite_first_row(self, path, change):
        lines = path.read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[0])
        change(row)
        lines[0] = json.dumps(row, sort_keys=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_garbage_progress(self, inputs, spill):
        (spill / "progress.json").write_text("{not json", encoding="utf-8")
        self.assert_resume_rejected(inputs, spill, "progress.json")

    def test_progress_without_count(self, inputs, spill):
        self.rewrite_progress(spill, lambda progress: progress.pop("records"))
        self.assert_resume_rejected(inputs, spill, "progress.json")

    def test_progress_with_negative_count(self, inputs, spill):
        self.rewrite_progress(spill, lambda progress: progress.update(tokens=-1))
        self.assert_resume_rejected(inputs, spill, "progress.json")

    def test_progress_with_malformed_report(self, inputs, spill):
        self.rewrite_progress(
            spill, lambda progress: progress.update(report={"total": "many"})
        )
        self.assert_resume_rejected(inputs, spill, "progress.json")

    @pytest.mark.parametrize("damage", REPORT_DAMAGES.values(), ids=REPORT_DAMAGES)
    def test_progress_with_bad_report_counts(self, inputs, spill, damage):
        self.rewrite_progress(spill, lambda progress: damage(progress["report"]))
        self.assert_resume_rejected(inputs, spill, "progress.json")

    def test_garbage_vp_table(self, inputs, spill):
        path = spill / "vps.jsonl"
        rows = len(path.read_text(encoding="utf-8").splitlines())
        path.write_text("{not json\n" * rows, encoding="utf-8")
        self.assert_resume_rejected(inputs, spill, "vps.jsonl")

    def test_vp_row_without_ip(self, inputs, spill):
        self.rewrite_first_row(spill / "vps.jsonl", lambda row: row.pop("ip"))
        self.assert_resume_rejected(inputs, spill, "vps.jsonl")

    def test_bad_prefix_row(self, inputs, spill):
        self.rewrite_first_row(
            spill / "prefixes.jsonl",
            lambda row: row.update(prefix="10.0.0.0/99"),
        )
        self.assert_resume_rejected(inputs, spill, "prefixes.jsonl")

    def test_offset_past_the_tokens(self, inputs, spill):
        corrupt_offset(spill)
        self.assert_resume_rejected(inputs, spill, "offsets.i64")

    def test_zero_path_length(self, inputs, spill):
        corrupt_length(spill)
        self.assert_resume_rejected(inputs, spill, "lengths.i64")


class TestWorkerTransport:
    """``workers`` is accepted and ignored: a spill-backed run that
    sets it ranks exactly as the in-memory serial run."""

    def test_sweep_with_workers_matches_serial(self, world, memory_result):
        result = run_pipeline(
            world, PipelineConfig(seed=0, workers=2, store_backend="mmap")
        )
        try:
            baseline = memory_result.rank_all(("CCI",), ("US", "NL"))
            fanned = result.rank_all(("CCI",), ("US", "NL"))
            for key, ranking in baseline.items():
                assert fanned[key].entries == ranking.entries, key
        finally:
            result.close()


class TestLifecycle:
    def test_close_removes_run_scoped_spill(self, world):
        result = run_pipeline(world, PipelineConfig(seed=0, store_backend="mmap"))
        spill_dir = result.paths.store().directory
        import os

        assert os.path.isdir(spill_dir)
        result.close()
        assert not os.path.exists(spill_dir)

    def test_named_spill_dir_persists(self, world, tmp_path):
        spill = tmp_path / "kept"
        result = run_pipeline(
            world,
            PipelineConfig(seed=0, store_backend="mmap", spill_dir=str(spill)),
        )
        result.close()
        assert (spill / "manifest.json").exists()
