"""Tests for the checkpoint file, the content key and the resume
equivalence."""

import json

import pytest

from repro.core.pipeline import PipelineConfig
from repro.core.ranking import RankEntry, Ranking
from repro.resilience import (
    Checkpoint,
    CheckpointError,
    ranking_from_payload,
    ranking_to_payload,
    store_key,
)
from repro.topology.catalog import build_world


def make_ranking():
    entries = [
        RankEntry(rank=1, asn=100, value=0.1 + 0.2, share=1 / 3),
        RankEntry(rank=2, asn=200, value=2e-17, share=0.25),
    ]
    return Ranking("AHN:AU", entries, "AU")


class TestCheckpoint:
    def test_put_get_roundtrip(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with Checkpoint.open(path) as ck:
            ck.put("unit:1", {"x": 1})
            assert ck.get("unit:1") == {"x": 1}
            assert ck.get("unit:2") is None

    def test_resume_recovers_units(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with Checkpoint.open(path) as ck:
            ck.put("unit:1", [1, 2])
            ck.put("unit:2", "done")
        resumed = Checkpoint.open(path)
        assert resumed.loaded == 2
        assert resumed.get("unit:1") == [1, 2]
        assert resumed.get("unit:2") == "done"

    def test_foreign_key_starts_fresh(self, tmp_path):
        """A version-1 file (one key for the whole file) is foreign."""
        path = tmp_path / "ck.jsonl"
        path.write_text("\n".join(json.dumps(line) for line in (
            {"type": "header", "format": "repro-checkpoint", "version": 1,
             "key": "key-a"},
            {"type": "unit", "unit": "unit:1", "payload": 1},
        )) + "\n")
        resumed = Checkpoint.open(path)
        assert resumed.loaded == 0
        assert resumed.get("unit:1") is None

    def test_resume_false_ignores_file(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with Checkpoint.open(path) as ck:
            ck.put("unit:1", 1)
        fresh = Checkpoint.open(path, resume=False)
        assert fresh.loaded == 0

    def test_torn_tail_keeps_prefix(self, tmp_path):
        import warnings

        path = tmp_path / "ck.jsonl"
        with Checkpoint.open(path) as ck:
            ck.put("unit:1", 1)
            ck.put("unit:2", 2)
        with open(path, "at", encoding="utf-8") as handle:
            handle.write('{"type": "unit", "unit": "unit:3", "payl')
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            resumed = Checkpoint.open(path)
        assert resumed.loaded == 2
        assert resumed.get("unit:3") is None

    def test_missing_file_is_empty(self, tmp_path):
        ck = Checkpoint.open(tmp_path / "absent.jsonl")
        assert ck.loaded == 0

    def test_torn_tail_warns(self, tmp_path):
        import pytest

        path = tmp_path / "ck.jsonl"
        with Checkpoint.open(path) as ck:
            ck.put("unit:1", 1)
        with open(path, "ab") as handle:
            handle.write(b'{"type": "unit", "un')
        with pytest.warns(RuntimeWarning, match="torn trailing line"):
            resumed = Checkpoint.open(path)
        assert resumed.loaded == 1

    def test_torn_tail_truncated_before_append(self, tmp_path):
        """The regression: resume used to leave the torn fragment in
        the file, so the next ``put`` concatenated onto it and
        corrupted two records at once. The torn tail must be gone
        from disk before any append."""
        import warnings

        path = tmp_path / "ck.jsonl"
        with Checkpoint.open(path) as ck:
            ck.put("unit:1", 1)
            ck.put("unit:2", 2)
        with open(path, "ab") as handle:
            handle.write(b'{"type": "unit", "unit": "unit:3", "payl')
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with Checkpoint.open(path) as resumed:
                assert resumed.loaded == 2
                resumed.put("unit:3", 3)
        # every line on disk must now parse — no concatenated garbage
        lines = path.read_bytes().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert [e["unit"] for e in parsed if e["type"] == "unit"] == [
            "unit:1", "unit:2", "unit:3",
        ]
        # and a fresh resume sees all three units
        final = Checkpoint.open(path)
        assert final.loaded == 3
        assert final.get("unit:3") == 3

    def test_torn_tail_any_byte_length(self, tmp_path):
        """Byte-wise sweep: a crash can tear the final append at any
        byte. Every prefix of the last line must resume to exactly the
        complete lines before it, and the file must be repaired."""
        import warnings

        path = tmp_path / "ck.jsonl"
        with Checkpoint.open(path) as ck:
            ck.put("unit:1", {"x": 1})
            ck.put("unit:2", {"y": 2})
        raw = path.read_bytes()
        last_line_start = raw.rstrip(b"\n").rfind(b"\n") + 1
        for cut in range(last_line_start + 1, len(raw)):
            torn = tmp_path / f"torn-{cut}.jsonl"
            torn.write_bytes(raw[:cut])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                resumed = Checkpoint.open(torn)
            expected = raw[:cut].count(b"\n") - 1  # minus the header
            assert resumed.loaded == expected, f"cut at byte {cut}"
            assert torn.read_bytes() == raw[: raw[:cut].rfind(b"\n") + 1]

    def test_mid_file_corruption_distrusts_whole_file(self, tmp_path):
        """A flipped byte *before* the final line is not a crash-append
        signature — resume must start fresh rather than trust the rest."""
        path = tmp_path / "ck.jsonl"
        with Checkpoint.open(path) as ck:
            ck.put("unit:1", 1)
            ck.put("unit:2", 2)
        raw = bytearray(path.read_bytes())
        middle = raw.index(b'"unit:1"')
        raw[middle] = 0x00
        path.write_bytes(bytes(raw))
        resumed = Checkpoint.open(path)
        assert resumed.loaded == 0

    def test_fresh_open_truncates_on_first_put(self, tmp_path):
        """A fresh open rewrites the file to a bare header at once,
        before any put."""
        path = tmp_path / "ck.jsonl"
        with Checkpoint.open(path) as ck:
            ck.put("unit:1", 1)
        with Checkpoint.open(path, resume=False) as ck:
            assert [json.loads(line) for line in path.read_text().splitlines()] == [
                {"type": "header", "format": "repro-checkpoint", "version": 2},
            ]
            ck.put("other", 2)
        lines = path.read_text().splitlines()
        assert all("unit:1" not in line for line in lines)
        assert Checkpoint.open(path).units() == ["other"]

    def test_later_line_wins(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with Checkpoint.open(path) as ck:
            ck.put("unit:1", "old")
            ck.put("unit:1", "new")
        assert Checkpoint.open(path).get("unit:1") == "new"

    @pytest.mark.parametrize("where", ["missing/ck.jsonl", "."])
    def test_unusable_path_fails_at_open(self, tmp_path, where):
        with pytest.raises(CheckpointError, match="cannot open"):
            Checkpoint.open(tmp_path / where)

    def test_float_payloads_roundtrip_exactly(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        values = [0.1 + 0.2, 2e-17, 1 / 3, 1e300]
        with Checkpoint.open(path) as ck:
            for index, value in enumerate(values):
                ck.put(f"trial:{index}", value)
        resumed = Checkpoint.open(path)
        for index, value in enumerate(values):
            assert resumed.get(f"trial:{index}") == value  # exact, not approx


class TestContentKeys:
    """The sweep banks under the one content key, :func:`store_key`."""

    def test_sweep_key_tracks_semantic_knobs(self):
        world = build_world("small", 0)
        base = PipelineConfig(seed=0)
        assert store_key(world, base) != store_key(
            world, PipelineConfig(seed=0, trim=0.2)
        )
        assert store_key(world, base) == store_key(world, PipelineConfig(seed=0))

    def test_sweep_key_ignores_resilience_knobs(self):
        world = build_world("small", 0)
        tweaked = PipelineConfig(seed=0, workers=8)
        assert store_key(world, PipelineConfig(seed=0)) == store_key(
            world, tweaked
        )

    def test_content_is_a_world_or_a_digest(self):
        world = build_world("small", 0)
        config = PipelineConfig()
        assert store_key(world, config) == store_key(world.fingerprint(), config)
        assert store_key("0" * 64, config) != store_key("1" * 64, config)


class TestRankingPayload:
    def test_roundtrip_is_value_exact(self):
        ranking = make_ranking()
        payload = json.loads(json.dumps(ranking_to_payload(ranking)))
        rebuilt = ranking_from_payload(payload)
        assert rebuilt == ranking

    def test_malformed_payload_rejected(self):
        for payload in (
            {"metric": "AHN", "entries": [[1]]},
            {"metric": "AHN:AU", "country": "AU", "entries": "garbage"},
            {"metric": "AHN:AU", "entries": []},
            [],
            {"metric": "AHN:AU", "country": "AU",
             "entries": [[1, 100, 1, 0.5]]},  # an int value
            {"metric": "AHN:AU", "country": "AU",
             "entries": [[1.0, 100, 0.5, 0.5]]},  # a float rank
            {"metric": "AHN:AU", "country": "AU",
             "entries": [[1, True, 0.5, 0.5]]},  # a bool ASN
            {"metric": "AHN:AU", "country": "AU",
             "entries": [[1, 100, 0.5, "0.5"]]},  # a string share
        ):
            with pytest.raises(CheckpointError):
                ranking_from_payload(payload)

    def test_null_share_accepted(self):
        payload = {"metric": "CTI:AU", "country": "AU",
                   "entries": [[1, 100, 0.5, None]]}
        assert ranking_from_payload(payload).entries[0].share is None


class TestStoreBackendIsNotSemantic:
    """The spill backend changes where records live, never what they
    are — so it must not perturb checkpoint or artifact-store keys."""

    def test_backend_knobs_excluded_from_keys(self):
        from repro.resilience import SEMANTIC_KNOBS

        assert "store_backend" not in SEMANTIC_KNOBS
        assert "spill_dir" not in SEMANTIC_KNOBS
        world = build_world("small", 0)
        assert store_key(
            world, PipelineConfig(store_backend="mmap", spill_dir="/tmp/x")
        ) == store_key(world, PipelineConfig())


#: ``PipelineConfig`` fields that never change a ranking's bytes, so
#: never enter a key
NON_SEMANTIC_KNOBS = ("workers", "trace", "store_backend", "spill_dir")


class TestSemanticKnobs:
    def test_every_config_field_is_classified(self):
        import dataclasses

        from repro.resilience import SEMANTIC_KNOBS

        fields = {field.name for field in dataclasses.fields(PipelineConfig)}
        unclassified = fields - set(SEMANTIC_KNOBS) - set(NON_SEMANTIC_KNOBS)
        assert not unclassified, (
            f"PipelineConfig fields {sorted(unclassified)} are neither in "
            "SEMANTIC_KNOBS (they can change a ranking's bytes, so they "
            "belong in its key) nor in NON_SEMANTIC_KNOBS"
        )
        assert not set(SEMANTIC_KNOBS) & set(NON_SEMANTIC_KNOBS)
        assert set(SEMANTIC_KNOBS) <= fields

    def test_a_new_knob_changes_every_banked_unit(self, tmp_path, monkeypatch):
        """One more field in SEMANTIC_KNOBS renames every unit that
        sweep, serve and watch bank."""
        from repro.cli import main
        from repro.resilience import SEMANTIC_KNOBS, checkpoint
        from repro.serve.cli import main as serve_main
        from repro.serve.http import RankingServer

        monkeypatch.setattr(RankingServer, "serve_forever", lambda server: None)

        def bank(tag):
            units = {}
            for path, ran in (
                (tmp_path / f"sweep-{tag}.ck", lambda path: main([
                    "--world", "small", "sweep", "--metrics", "AHN",
                    "--countries", "AU", "--checkpoint", str(path),
                ])),
                (tmp_path / f"serve-{tag}.ck", lambda path: serve_main([
                    "--world", "small", "--port", "0", "--store", str(path),
                    "--precompute", "AHN", "--countries", "AU",
                ])),
                (tmp_path / f"watch-{tag}.ck", lambda path: main([
                    "watch", "small@0", "small@1", "--metrics", "AHN",
                    "--countries", "AU", "--checkpoint", str(path),
                ])),
            ):
                assert ran(path) == 0
                lines = path.read_text().splitlines()[1:]
                units[path.stem.partition("-")[0]] = {
                    json.loads(line)["unit"] for line in lines
                }
            return units

        before = bank("before")
        monkeypatch.setattr(
            checkpoint, "SEMANTIC_KNOBS", SEMANTIC_KNOBS + ("store_backend",)
        )
        after = bank("after")
        for path in ("sweep", "serve", "watch"):
            assert before[path] and after[path], path
            assert not before[path] & after[path], path
        # the same unit, renamed only by its key
        assert {name.partition("|")[2] for name in before["sweep"]} == {
            name.partition("|")[2] for name in after["sweep"]
        }
