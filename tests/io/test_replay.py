"""Tests for dataset replay: release → reload → identical rankings."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import run_pipeline
from repro.cli import main
from repro.core.ndcg import ndcg
from repro.core.registry import get_spec
from repro.core.registry import specs as registry_specs
from repro.io.export import export_pathset_jsonl
from repro.io.replay import ReplayError, ReplaySession, load_pathset_jsonl
from repro.topology.catalog import build_world
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

    @pytest.mark.parametrize("bad_line", [
        '{"bad": 1}',
        {"prefix": "10.0.0.0/99"},
        {"path": ["x"]},
        {"addresses": "many"},
        {"vp_asn": None},
        {"path": []},
        {"path": "123"},
        {"path": [10.7, 8, 4]},
        {"path": [True, 8, 4]},
        {"addresses": -5},
        {"path": [2**40, 8, 4]},
        {"vp_ip": "garbage"},
    ], ids=[
        "not-a-record", "prefix-length", "path-token", "addresses-text",
        "vp-asn-null", "path-empty", "path-string", "path-float",
        "path-bool", "addresses-negative", "asn-above-max", "vp-ip",
    ])
    def test_malformed_line_rejected_with_its_line(
        self, tmp_path, capsys, bad_line
    ):
        """Each field is held to its type and range: the load raises
        ReplayError naming ``file:line``, and replay and watch print
        that one line and exit 2."""
        bad = tmp_path / "bad.jsonl"
        line = bad_line if isinstance(bad_line, str) else self._line(
            **bad_line
        ).strip()
        bad.write_text(self._line(prefix="2.0.0.0/24") + line + "\n")
        with pytest.raises(ReplayError, match=r"bad\.jsonl:2: ") as caught:
            load_pathset_jsonl(bad)
        assert main(["replay", str(bad), "AHN", "AU"]) == 2
        assert capsys.readouterr().err == (
            f"repro-rank: error: {caught.value}\n"
        )
        good = tmp_path / "good.jsonl"
        good.write_text(self._line())
        assert main(["watch", str(bad), str(good)]) == 2
        assert capsys.readouterr().err == (
            f"repro-rank: error: {caught.value}\n"
        )

    def test_missing_file_rejected(self, tmp_path, capsys):
        missing = tmp_path / "missing.jsonl"
        with pytest.raises(ReplayError, match=r"missing\.jsonl: cannot read"):
            load_pathset_jsonl(missing)
        assert main(["replay", str(missing), "AHN", "AU"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-rank: error: ")
        assert err.count("\n") == 1 and "missing.jsonl" in err

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


#: replacement values for a released field: every JSON type, numbers
#: around each range's ends, and literals that parse as other fields
RETYPED = st.one_of(
    st.none(), st.booleans(),
    st.integers(-2, 3), st.sampled_from([-1, 2**32 - 1, 2**32, 2**40, 2**64]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([
        "", "x", "AU", "10.0.0.0/99", "10.0.0.1/8", "1.2.3.4", "::",
        "2001:db8::/32", "0.0.0.0/0", "1.2.3", "123",
    ]),
    st.lists(st.integers(0, 70000), min_size=1, max_size=6),
    st.lists(st.one_of(st.integers(-1, 70000), st.booleans(), st.text(max_size=2)),
             max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
FIELDS = st.sampled_from([
    "vp_ip", "vp_asn", "vp_country", "collector", "prefix",
    "prefix_country", "addresses", "path",
])
DAMAGES = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(st.just("keep"), st.integers(0, 10**6)),
    st.tuples(st.just("retype"), st.integers(0, 10**6), FIELDS, RETYPED),
    st.tuples(st.just("drop"), st.integers(0, 10**6), FIELDS),
)


def damaged(data: bytes, damage) -> bytes:
    """``data`` with one byte flipped, cut short (anywhere, or to its
    first lines), or one line's field retyped or dropped."""
    kind, where, *rest = damage
    if kind == "flip":
        flipped = bytearray(data)
        flipped[where % len(data)] ^= rest[0]
        return bytes(flipped)
    if kind == "truncate":
        return data[:where % len(data)]
    lines = data.splitlines()
    if kind == "keep":
        return b"".join(line + b"\n" for line in lines[:where % (len(lines) + 1)])
    index = where % len(lines)
    entry = json.loads(lines[index])
    if kind == "retype":
        entry[rest[0]] = rest[1]
    else:
        entry.pop(rest[0], None)
    lines[index] = json.dumps(entry).encode()
    return b"\n".join(lines) + b"\n"


class TestDamagedRelease:
    """A released ``paths.jsonl`` is outside input: generated damage to
    a real ``small`` release (byte flips, truncation, retyped,
    out-of-range and dropped fields) either loads and ranks, or raises
    ReplayError — from the loader and, as exit status 2, from
    ``repro-rank replay``; never another exception."""

    @pytest.fixture(scope="class")
    def release(self, tmp_path_factory):
        result = run_pipeline(build_world("small", 0))
        path = tmp_path_factory.mktemp("release") / "paths.jsonl"
        export_pathset_jsonl(result.paths, path)
        return path.read_bytes()

    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        damage=DAMAGES,
        query=st.sampled_from([("AHN", "AU"), ("CCI", "AU"), ("AHG", None)]),
    )
    def test_any_damage_fails_typed_or_not_at_all(
        self, release, tmp_path, damage, query
    ):
        target = tmp_path / "paths.jsonl"
        target.write_bytes(damaged(release, damage))
        try:
            load_pathset_jsonl(target)
        except ReplayError:
            pass
        metric, country = query
        argv = ["replay", str(target), metric] + ([country] if country else [])
        assert main(argv) in (0, 2)
