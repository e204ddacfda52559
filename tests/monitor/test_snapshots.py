"""Tests for the snapshot-spec resolver grammar."""

import pytest

from repro.monitor.snapshots import SnapshotRef, WatchError, resolve_snapshots


def touch(directory, name):
    path = directory / name
    path.write_text("")
    return path


class TestWorldSpecs:
    def test_named_worlds(self):
        refs = resolve_snapshots(["small", "paper2021"])
        assert [r.label for r in refs] == ["small", "paper2021"]
        assert all(r.kind == "world" for r in refs)
        assert refs[0].seed is None  # run seed applies

    def test_seeded_worlds(self):
        refs = resolve_snapshots(["small@0", "small@7"])
        assert [r.label for r in refs] == ["small@0", "small@7"]
        assert [r.seed for r in refs] == [0, 7]

    def test_bad_seed(self):
        with pytest.raises(WatchError, match="not an integer"):
            resolve_snapshots(["small@x", "small@1"])

    def test_negative_seed(self):
        with pytest.raises(WatchError, match=">= 0"):
            resolve_snapshots(["small@-1", "small@1"])


class TestFileSpecs:
    def test_files_in_argument_order(self, tmp_path):
        b = touch(tmp_path, "b.jsonl")
        a = touch(tmp_path, "a.jsonl")
        refs = resolve_snapshots([str(b), str(a)])
        assert [r.label for r in refs] == ["b", "a"]
        assert all(r.kind == "release" for r in refs)

    def test_directory_expands_sorted(self, tmp_path):
        touch(tmp_path, "day2.jsonl")
        touch(tmp_path, "day1.jsonl")
        touch(tmp_path, "notes.txt")  # ignored
        refs = resolve_snapshots([str(tmp_path)])
        assert [r.label for r in refs] == ["day1", "day2"]

    def test_glob_expands_sorted(self, tmp_path):
        touch(tmp_path, "d2.jsonl")
        touch(tmp_path, "d1.jsonl")
        refs = resolve_snapshots([str(tmp_path / "d*.jsonl")])
        assert [r.label for r in refs] == ["d1", "d2"]

    def test_empty_directory(self, tmp_path):
        with pytest.raises(WatchError, match="no .*jsonl"):
            resolve_snapshots([str(tmp_path)])

    def test_unmatched_glob(self, tmp_path):
        with pytest.raises(WatchError, match="matched no files"):
            resolve_snapshots([str(tmp_path / "nope*.jsonl")])

    def test_unresolvable_spec(self):
        with pytest.raises(WatchError, match="not a known world"):
            resolve_snapshots(["tinyworld", "small"])


class TestStreamRules:
    def test_needs_two_snapshots(self):
        with pytest.raises(WatchError, match="at least 2"):
            resolve_snapshots(["small"])

    def test_empty_spec(self):
        with pytest.raises(WatchError, match="empty"):
            resolve_snapshots(["small", " "])

    def test_duplicate_file_labels_fall_back_to_paths(self, tmp_path):
        one = tmp_path / "one"
        two = tmp_path / "two"
        one.mkdir()
        two.mkdir()
        touch(one, "day1.jsonl")
        touch(two, "day1.jsonl")
        refs = resolve_snapshots([str(one), str(two)])
        labels = [r.label for r in refs]
        assert len(set(labels)) == 2
        assert all(label.endswith("day1.jsonl") for label in labels)

    def test_duplicate_world_labels_rejected(self):
        with pytest.raises(WatchError, match="duplicate"):
            resolve_snapshots(["small@1", "small@1"])

    def test_mixed_world_and_release(self, tmp_path):
        day = touch(tmp_path, "day1.jsonl")
        refs = resolve_snapshots(["small@0", str(day)])
        assert [r.kind for r in refs] == ["world", "release"]


class TestLoad:
    def test_world_ref_load_runs_pipeline(self):
        ref = resolve_snapshots(["small@0", "small@1"])[0]
        config = ref.config(seed=99, trim=0.1)
        world = ref.content(config)
        result = ref.load(config, world)
        assert result.world is world  # built once, handed to the pipeline
        assert result.world.name == "small"
        assert result.config.seed == 0  # explicit @seed wins over run seed

    def test_unseeded_world_uses_run_seed(self):
        ref = SnapshotRef(label="small", kind="world", spec="small", world="small")
        config = ref.config(seed=5, trim=0.1)
        result = ref.load(config)
        assert result.config.seed == 5
