"""Tests for content-keyed checkpoints and the resume equivalence."""

import json

from repro.core.pipeline import PipelineConfig
from repro.core.ranking import RankEntry, Ranking
from repro.resilience import (
    Checkpoint,
    ranking_from_payload,
    ranking_to_payload,
    sweep_key,
)


def make_ranking():
    entries = [
        RankEntry(rank=1, asn=100, value=0.1 + 0.2, share=1 / 3),
        RankEntry(rank=2, asn=200, value=2e-17, share=0.25),
    ]
    return Ranking("AHN:AU", entries, "AU")


class TestCheckpoint:
    def test_put_get_roundtrip(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with Checkpoint.open(path, "key-a") as ck:
            ck.put("unit:1", {"x": 1})
            assert ck.get("unit:1") == {"x": 1}
            assert ck.get("unit:2") is None

    def test_resume_recovers_units(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with Checkpoint.open(path, "key-a") as ck:
            ck.put("unit:1", [1, 2])
            ck.put("unit:2", "done")
        resumed = Checkpoint.open(path, "key-a")
        assert resumed.loaded == 2
        assert resumed.get("unit:1") == [1, 2]
        assert resumed.get("unit:2") == "done"

    def test_foreign_key_starts_fresh(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with Checkpoint.open(path, "key-a") as ck:
            ck.put("unit:1", 1)
        resumed = Checkpoint.open(path, "key-B")
        assert resumed.loaded == 0
        assert resumed.get("unit:1") is None

    def test_resume_false_ignores_file(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with Checkpoint.open(path, "key-a") as ck:
            ck.put("unit:1", 1)
        fresh = Checkpoint.open(path, "key-a", resume=False)
        assert fresh.loaded == 0

    def test_torn_tail_keeps_prefix(self, tmp_path):
        import warnings

        path = tmp_path / "ck.jsonl"
        with Checkpoint.open(path, "key-a") as ck:
            ck.put("unit:1", 1)
            ck.put("unit:2", 2)
        with open(path, "at", encoding="utf-8") as handle:
            handle.write('{"type": "unit", "unit": "unit:3", "payl')
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            resumed = Checkpoint.open(path, "key-a")
        assert resumed.loaded == 2
        assert resumed.get("unit:3") is None

    def test_missing_file_is_empty(self, tmp_path):
        ck = Checkpoint.open(tmp_path / "absent.jsonl", "key-a")
        assert ck.loaded == 0

    def test_torn_tail_warns(self, tmp_path):
        import pytest

        path = tmp_path / "ck.jsonl"
        with Checkpoint.open(path, "key-a") as ck:
            ck.put("unit:1", 1)
        with open(path, "ab") as handle:
            handle.write(b'{"type": "unit", "un')
        with pytest.warns(RuntimeWarning, match="torn trailing line"):
            resumed = Checkpoint.open(path, "key-a")
        assert resumed.loaded == 1

    def test_torn_tail_truncated_before_append(self, tmp_path):
        """The regression: resume used to leave the torn fragment in
        the file, so the next ``put`` concatenated onto it and
        corrupted two records at once. The torn tail must be gone
        from disk before any append."""
        import warnings

        path = tmp_path / "ck.jsonl"
        with Checkpoint.open(path, "key-a") as ck:
            ck.put("unit:1", 1)
            ck.put("unit:2", 2)
        with open(path, "ab") as handle:
            handle.write(b'{"type": "unit", "unit": "unit:3", "payl')
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with Checkpoint.open(path, "key-a") as resumed:
                assert resumed.loaded == 2
                resumed.put("unit:3", 3)
        # every line on disk must now parse — no concatenated garbage
        lines = path.read_bytes().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert [e["unit"] for e in parsed if e["type"] == "unit"] == [
            "unit:1", "unit:2", "unit:3",
        ]
        # and a fresh resume sees all three units
        final = Checkpoint.open(path, "key-a")
        assert final.loaded == 3
        assert final.get("unit:3") == 3

    def test_torn_tail_any_byte_length(self, tmp_path):
        """Byte-wise sweep: a crash can tear the final append at any
        byte. Every prefix of the last line must resume to exactly the
        complete lines before it, and the file must be repaired."""
        import warnings

        path = tmp_path / "ck.jsonl"
        with Checkpoint.open(path, "key-a") as ck:
            ck.put("unit:1", {"x": 1})
            ck.put("unit:2", {"y": 2})
        raw = path.read_bytes()
        last_line_start = raw.rstrip(b"\n").rfind(b"\n") + 1
        for cut in range(last_line_start + 1, len(raw)):
            torn = tmp_path / f"torn-{cut}.jsonl"
            torn.write_bytes(raw[:cut])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                resumed = Checkpoint.open(torn, "key-a")
            expected = raw[:cut].count(b"\n") - 1  # minus the header
            assert resumed.loaded == expected, f"cut at byte {cut}"
            assert torn.read_bytes() == raw[: raw[:cut].rfind(b"\n") + 1]

    def test_mid_file_corruption_distrusts_whole_file(self, tmp_path):
        """A flipped byte *before* the final line is not a crash-append
        signature — resume must start fresh rather than trust the rest."""
        path = tmp_path / "ck.jsonl"
        with Checkpoint.open(path, "key-a") as ck:
            ck.put("unit:1", 1)
            ck.put("unit:2", 2)
        raw = bytearray(path.read_bytes())
        middle = raw.index(b'"unit:1"')
        raw[middle] = 0x00
        path.write_bytes(bytes(raw))
        resumed = Checkpoint.open(path, "key-a")
        assert resumed.loaded == 0

    def test_fresh_open_truncates_on_first_put(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with Checkpoint.open(path, "key-a") as ck:
            ck.put("unit:1", 1)
        with Checkpoint.open(path, "key-B") as ck:
            ck.put("other", 2)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["key"] == "key-B"
        assert all("unit:1" not in line for line in lines)

    def test_float_payloads_roundtrip_exactly(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        values = [0.1 + 0.2, 2e-17, 1 / 3, 1e300]
        with Checkpoint.open(path, "key-a") as ck:
            for index, value in enumerate(values):
                ck.put(f"trial:{index}", value)
        resumed = Checkpoint.open(path, "key-a")
        for index, value in enumerate(values):
            assert resumed.get(f"trial:{index}") == value  # exact, not approx


class TestContentKeys:
    def test_sweep_key_tracks_semantic_knobs(self):
        base = PipelineConfig(seed=0)
        other = PipelineConfig(seed=0, trim=0.2)
        metrics = ("AHN", "CCI")
        assert sweep_key("small", base, metrics, None) != sweep_key(
            "small", other, metrics, None
        )
        assert sweep_key("small", base, metrics, None) == sweep_key(
            "small", PipelineConfig(seed=0), metrics, None
        )

    def test_sweep_key_ignores_resilience_knobs(self):
        from repro.resilience import FaultPlan

        base = PipelineConfig(seed=0)
        tweaked = PipelineConfig(
            seed=0, workers=8, faults=FaultPlan(corrupt_rate=0.5)
        )
        metrics = ("AHN",)
        assert sweep_key("small", base, metrics, None) == sweep_key(
            "small", tweaked, metrics, None
        )

    def test_sweep_key_tracks_request(self):
        config = PipelineConfig(seed=0)
        assert sweep_key("small", config, ("AHN",), ("AU",)) != sweep_key(
            "small", config, ("AHN",), ("JP",)
        )
        assert sweep_key("small", config, ("AHN",), None) != sweep_key(
            "small", config, ("CCI",), None
        )


class TestRankingPayload:
    def test_roundtrip_is_value_exact(self):
        ranking = make_ranking()
        payload = json.loads(json.dumps(ranking_to_payload(ranking)))
        rebuilt = ranking_from_payload(payload)
        assert rebuilt == ranking

    def test_malformed_payload_rejected(self):
        import pytest

        from repro.resilience import CheckpointError

        with pytest.raises(CheckpointError):
            ranking_from_payload({"metric": "AHN", "entries": [[1]]})


class TestStoreBackendIsNotSemantic:
    """The spill backend changes where records live, never what they
    are — so it must not perturb checkpoint or artifact-store keys."""

    def test_backend_knobs_excluded_from_keys(self):
        from repro.core.pipeline import PipelineConfig
        from repro.resilience.checkpoint import SEMANTIC_KNOBS, config_knobs

        assert "store_backend" not in SEMANTIC_KNOBS
        assert "spill_dir" not in SEMANTIC_KNOBS
        assert config_knobs(
            PipelineConfig(store_backend="mmap", spill_dir="/tmp/x")
        ) == config_knobs(PipelineConfig())
