"""Tests for dataset replay: release → reload → identical rankings."""

import json

import pytest

from repro import run_pipeline
from repro.core.ndcg import ndcg
from repro.core.registry import get_spec
from repro.core.registry import specs as registry_specs
from repro.io.export import export_pathset_jsonl
from repro.io.replay import ReplayError, ReplaySession, load_pathset_jsonl
from repro.topology.paper_world import build_paper_world


@pytest.fixture(scope="module")
def result():
    return run_pipeline(build_paper_world())


@pytest.fixture(scope="module")
def released(result, tmp_path_factory):
    path = tmp_path_factory.mktemp("release") / "paths.jsonl"
    export_pathset_jsonl(result.paths, path)
    return path


class TestLoad:
    def test_round_trip_records(self, result, released):
        paths = load_pathset_jsonl(released)
        assert len(paths) == len(result.paths)
        original = result.paths.records[0]
        loaded = paths.records[0]
        assert loaded.vp.ip == original.vp.ip
        assert loaded.prefix == original.prefix
        assert loaded.path == original.path
        assert loaded.addresses == original.addresses

    def test_bad_json_rejected(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json}\n")
        with pytest.raises(ReplayError):
            load_pathset_jsonl(bad)

    def test_missing_fields_rejected(self, tmp_path):
        bad = tmp_path / "incomplete.jsonl"
        bad.write_text(json.dumps({"vp_ip": "10.0.0.1"}) + "\n")
        with pytest.raises(ReplayError):
            load_pathset_jsonl(bad)

    @staticmethod
    def _line(**changes):
        entry = {
            "vp_ip": "10.0.0.1", "vp_asn": 1, "collector": "rrc00",
            "vp_country": "AU", "prefix": "1.0.0.0/24",
            "prefix_country": "AU", "addresses": 256, "path": [1, 2],
        }
        return json.dumps({**entry, **changes}) + "\n"

    def test_prefix_with_two_rows_rejected(self, tmp_path):
        """A store keeps one (country, addresses) row per prefix."""
        bad = tmp_path / "prefix.jsonl"
        bad.write_text(
            self._line() + self._line(vp_ip="10.0.0.2", addresses=512)
        )
        with pytest.raises(
            ReplayError, match=r"prefix\.jsonl:2: prefix 1\.0\.0\.0/24"
        ):
            load_pathset_jsonl(bad)

    def test_vp_with_two_rows_rejected(self, tmp_path):
        """A store keeps one (ASN, collector, country) row per VP IP."""
        bad = tmp_path / "vp.jsonl"
        bad.write_text(
            self._line() + self._line(prefix="2.0.0.0/24", collector="rrc01")
        )
        with pytest.raises(ReplayError, match=r"vp\.jsonl:2: VP 10\.0\.0\.1"):
            load_pathset_jsonl(bad)

    def test_blank_lines_ignored(self, result, released, tmp_path):
        padded = tmp_path / "padded.jsonl"
        padded.write_text(released.read_text() + "\n\n")
        assert len(load_pathset_jsonl(padded)) == len(result.paths)


class TestReplayRankings:
    def test_hegemony_replays_exactly(self, result, released):
        session = ReplaySession.from_file(released)
        for metric, country in (("AHI", "AU"), ("AHN", "RU"), ("AHG", None)):
            original = result.ranking(metric, country)
            replayed = session.ranking(metric, country)
            assert replayed.top_asns(10) == original.top_asns(10), metric
            for entry in replayed.top(10):
                assert entry.value == pytest.approx(original.value_of(entry.asn))

    def test_cones_replay_approximately(self, result, released):
        """Cone metrics rely on inferred relationships: close, not exact."""
        session = ReplaySession.from_file(released)
        original = result.ranking("CCI", "AU")
        replayed = session.ranking("CCI", "AU")
        assert ndcg(original, replayed) > 0.6

    def test_cones_exact_with_supplied_oracle(self, result, released):
        session = ReplaySession(load_pathset_jsonl(released),
                                oracle=result.world.graph)
        original = result.ranking("CCI", "AU")
        replayed = session.ranking("CCI", "AU")
        assert replayed.top_asns(10) == original.top_asns(10)

    def test_ahc_not_replayable(self, released):
        session = ReplaySession.from_file(released)
        with pytest.raises(ValueError):
            session.ranking("AHC", "AU")

    def test_country_required(self, released):
        session = ReplaySession.from_file(released)
        with pytest.raises(ValueError):
            session.ranking("AHI")

    def test_rankings_memoised(self, released):
        session = ReplaySession.from_file(released)
        assert session.ranking("AHG") is session.ranking("AHG")

    def test_country_codes_normalised(self, result, released):
        session = ReplaySession.from_file(released)
        assert session.ranking("ahn", "au") is session.ranking("AHN", "AU")
        assert session.ranking("AHN", " AU ").metric == "AHN:AU"


class TestRegistryReplayParity:
    """Every ``replayable`` spec replays value-exactly.

    Registry-driven: a newly registered replayable metric is covered
    here automatically. The session gets the pipeline's oracle (the
    released bundle carries no relationship labels), so cone metrics
    are exact too — the suite pins value identity, not approximation.
    """

    @pytest.mark.parametrize(
        "name", [spec.name for spec in registry_specs(replayable=True)]
    )
    def test_replay_matches_pipeline_value_exactly(
        self, result, released, name
    ):
        spec = get_spec(name)
        country = "AU" if spec.needs_country else None
        session = ReplaySession(
            load_pathset_jsonl(released), oracle=result.oracle
        )
        original = result.ranking(spec.name, country)
        replayed = session.ranking(spec.name, country)
        assert replayed.metric == original.metric
        assert replayed.country == original.country
        assert replayed.entries == original.entries

    def test_every_non_replayable_spec_is_rejected(self, released):
        session = ReplaySession.from_file(released)
        for spec in registry_specs(replayable=False):
            with pytest.raises(ValueError, match="cannot be replayed"):
                session.ranking(spec.name, "AU")
