"""Tests for dataset export."""

import csv
import json

import pytest

from repro import GeneratorConfig, generate_world, run_pipeline, small_profiles
from repro.cli import main
from repro.io.export import (
    export_filter_report,
    export_ixp_csv,
    export_pathset_jsonl,
    export_rankings_csv,
    export_vp_locations_csv,
    release_dataset,
)


@pytest.fixture(scope="module")
def result():
    world = generate_world(
        GeneratorConfig(profiles=small_profiles(), clique_homes=("US", "US", "SE", "JP")),
        seed=8,
    )
    return run_pipeline(world)


class TestExports:
    def test_rankings_csv(self, result, tmp_path):
        path = export_rankings_csv(
            [result.ranking("CCG"), result.ranking("AHN", "AU")],
            tmp_path / "rankings.csv", k=5,
        )
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        metrics = {row["metric"] for row in rows}
        assert metrics == {"CCG", "AHN:AU"}
        assert all(int(row["rank"]) <= 5 for row in rows)
        ccg_rows = [row for row in rows if row["metric"] == "CCG"]
        assert [int(r["rank"]) for r in ccg_rows] == sorted(
            int(r["rank"]) for r in ccg_rows
        )

    def test_pathset_jsonl(self, result, tmp_path):
        path = export_pathset_jsonl(result.paths, tmp_path / "paths.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == len(result.paths)
        record = json.loads(lines[0])
        assert {"vp_ip", "prefix", "path", "prefix_country"} <= set(record)
        assert isinstance(record["path"], list)

    def test_vp_locations(self, result, tmp_path):
        path = export_vp_locations_csv(result, tmp_path / "vps.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(result.world.collectors.all_vps())
        multihop = [row for row in rows if row["multihop"] == "True"]
        assert multihop and all(row["vp_country"] == "" for row in multihop)

    def test_filter_report(self, result, tmp_path):
        path = export_filter_report(result.paths.report, tmp_path / "report.json")
        payload = json.loads(path.read_text())
        assert payload["total"] == result.paths.report.total
        assert payload["accepted"] + sum(payload["rejected"].values()) == payload["total"]

    def test_ixp_csv(self, result, tmp_path):
        path = export_ixp_csv(result, tmp_path / "ixps.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(list(result.world.collectors))
        with_rs = [row for row in rows if row["route_server_asn"]]
        assert with_rs  # small world has route-server IXPs

    def test_release_bundle(self, result, tmp_path):
        written = release_dataset(result, tmp_path / "release", countries=["AU"])
        assert set(written) == {"rankings", "paths", "vps", "ixps",
                                "filter_report", "manifest"}
        manifest = json.loads(written["manifest"].read_text())
        assert "CCI:AU" in manifest["metrics"]
        for path in written.values():
            assert path.exists()

    def test_release_into_unwritable_path_exits_2(self, tmp_path, capsys):
        """A directory that cannot be made gets one error line, not a
        traceback."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["--world", "small", "release", str(blocker / "x")]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"repro-rank: error: cannot write the release to "
            f"{str(blocker / 'x')!r}: Not a directory\n"
        )
