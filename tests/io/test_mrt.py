"""Tests for the MRT-style RIB dump format."""

import gzip
import json

import pytest

from repro import GeneratorConfig, generate_world, small_profiles
from repro.bgp.announcement import Announcement
from repro.bgp.collectors import VantagePoint
from repro.bgp.propagation import propagate_all
from repro.bgp.rib import generate_rib_days
from repro.io.mrt import (
    MrtFormatError,
    dump_rib,
    dump_series,
    load_rib,
    read_header,
)
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix


def sample_announcements(n=5):
    return [
        Announcement(
            vp=VantagePoint(f"192.0.2.{i}", 100 + i, "test-ix"),
            prefix=Prefix.parse(f"10.{i}.0.0/16"),
            path=ASPath.of(100 + i, 50, i + 1),
        )
        for i in range(n)
    ]


class TestRoundTrip:
    def test_dump_and_load(self, tmp_path):
        announcements = sample_announcements()
        path = dump_rib(announcements, tmp_path / "rib.jsonl.gz", day=2)
        assert read_header(path).day == 2
        loaded = list(load_rib(path))
        assert loaded == announcements

    def test_empty_dump(self, tmp_path):
        path = dump_rib([], tmp_path / "empty.jsonl.gz")
        assert list(load_rib(path)) == []

    def test_series_round_trip(self, tmp_path):
        world = generate_world(
            GeneratorConfig(profiles=small_profiles(), clique_homes=("US", "US", "SE", "JP")),
            seed=3,
        )
        outcome = propagate_all(world.graph, keep=world.vp_asns())
        series = generate_rib_days(world, outcome, seed=1)
        written = dump_series(series, tmp_path / "dumps")
        assert len(written) == series.config.days
        for day, path in enumerate(written):
            loaded = sum(1 for _ in load_rib(path))
            original = sum(1 for _ in series.announcements(day))
            assert loaded == original


class TestValidation:
    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.jsonl.gz"
        with gzip.open(path, "wt") as handle:
            handle.write(json.dumps({"type": "header", "format": "other"}) + "\n")
        with pytest.raises(MrtFormatError):
            read_header(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "v99.jsonl.gz"
        with gzip.open(path, "wt") as handle:
            handle.write(json.dumps(
                {"type": "header", "format": "repro-mrt", "version": 99, "day": 0}
            ) + "\n")
        with pytest.raises(MrtFormatError):
            read_header(path)

    def test_missing_trailer_rejected(self, tmp_path):
        path = tmp_path / "truncated.jsonl.gz"
        with gzip.open(path, "wt") as handle:
            handle.write(json.dumps(
                {"type": "header", "format": "repro-mrt", "version": 1, "day": 0}
            ) + "\n")
        with pytest.raises(MrtFormatError):
            list(load_rib(path))

    def test_corrupt_count_rejected(self, tmp_path):
        path = dump_rib(sample_announcements(3), tmp_path / "rib.jsonl.gz")
        text = gzip.decompress(path.read_bytes()).decode()
        text = text.replace('"entries": 3', '"entries": 7')
        path.write_bytes(gzip.compress(text.encode()))
        with pytest.raises(MrtFormatError):
            list(load_rib(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "void.jsonl.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("")
        with pytest.raises(MrtFormatError):
            list(load_rib(path))


class TestCorruptInputWrapped:
    """Malformed input never escapes as a raw EOFError /
    JSONDecodeError — always MrtFormatError with ``path:line``."""

    def test_truncated_gzip_stream(self, tmp_path):
        whole = dump_rib(sample_announcements(20), tmp_path / "rib.jsonl.gz")
        cut = tmp_path / "cut.jsonl.gz"
        cut.write_bytes(whole.read_bytes()[:-20])  # drop the gzip tail
        with pytest.raises(MrtFormatError) as excinfo:
            list(load_rib(cut))
        assert str(cut) in str(excinfo.value)

    def test_not_gzip_at_all(self, tmp_path):
        path = tmp_path / "plain.jsonl.gz"
        path.write_text('{"type": "header"}\n')
        with pytest.raises(MrtFormatError) as excinfo:
            list(load_rib(path))
        assert str(path) in str(excinfo.value)
        with pytest.raises(MrtFormatError):
            read_header(path)

    def test_invalid_json_line_carries_line_number(self, tmp_path):
        path = dump_rib(sample_announcements(3), tmp_path / "rib.jsonl.gz")
        text = gzip.decompress(path.read_bytes()).decode()
        lines = text.splitlines()
        lines[2] = '{"type": "rib", "peer_ip":'  # mangle line 3
        path.write_bytes(gzip.compress(("\n".join(lines) + "\n").encode()))
        with pytest.raises(MrtFormatError) as excinfo:
            list(load_rib(path))
        assert f"{path}:3" in str(excinfo.value)

    def test_malformed_entry_carries_line_number(self, tmp_path):
        path = dump_rib(sample_announcements(3), tmp_path / "rib.jsonl.gz")
        text = gzip.decompress(path.read_bytes()).decode()
        lines = text.splitlines()
        lines[1] = json.dumps({"type": "rib", "peer_ip": "10.0.0.1"})
        path.write_bytes(gzip.compress(("\n".join(lines) + "\n").encode()))
        with pytest.raises(MrtFormatError) as excinfo:
            list(load_rib(path))
        assert f"{path}:2" in str(excinfo.value)

    def test_corrupt_header_fatal_even_lenient(self, tmp_path):
        path = tmp_path / "rib.jsonl.gz"
        with gzip.open(path, "wt") as handle:
            handle.write('{"type": "header", "for\n')
        with pytest.raises(MrtFormatError):
            list(load_rib(path, strict=False))

    def test_header_errors_name_line_one(self, tmp_path):
        path = tmp_path / "rib.jsonl.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("not json\n")
        with pytest.raises(MrtFormatError) as excinfo:
            read_header(path)
        assert f"{path}:1" in str(excinfo.value)


class TestQuarantineCounters:
    def _broken_dump(self, tmp_path):
        """A lenient-mode dump with one bad JSON line and one bad entry."""
        path = dump_rib(sample_announcements(4), tmp_path / "rib.jsonl.gz")
        lines = gzip.decompress(path.read_bytes()).decode().splitlines()
        lines[2] = "{not json"
        lines[3] = json.dumps({"type": "mystery"})
        path.write_bytes(gzip.compress(("\n".join(lines) + "\n").encode()))
        return path

    def test_diverted_lines_surface_as_counters(self, tmp_path):
        from repro.obs.trace import Tracer
        from repro.resilience.quarantine import Quarantine

        tracer = Tracer()
        sink = Quarantine()
        loaded = list(load_rib(
            self._broken_dump(tmp_path), strict=False, quarantine=sink,
            tracer=tracer,
        ))
        assert len(loaded) == 2
        counters = tracer.metrics.counters()
        assert counters["io.quarantine.invalid-json"] == 1
        assert counters["io.quarantine.bad-entry"] == 1
        # counters mirror the sink, they do not replace it
        assert len(sink) == 2

    def test_counters_appear_in_stage_report(self, tmp_path):
        from repro.obs.export import stage_report
        from repro.obs.trace import Tracer

        tracer = Tracer()
        list(load_rib(self._broken_dump(tmp_path), strict=False, tracer=tracer))
        report = stage_report(tracer)
        assert "-- io quarantine" in report
        assert "io.quarantine.invalid-json" in report

    def test_strict_mode_counts_nothing(self, tmp_path):
        from repro.obs.trace import Tracer

        tracer = Tracer()
        path = dump_rib(sample_announcements(2), tmp_path / "rib.jsonl.gz")
        list(load_rib(path, strict=True, tracer=tracer))
        assert not any(
            key.startswith("io.quarantine.")
            for key in tracer.metrics.counters()
        )
