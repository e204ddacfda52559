"""Tests for the repro-rank command-line interface."""

import json
import os
import subprocess
import sys
import threading
import urllib.request
import warnings
from pathlib import Path

import pytest

import repro
from repro import cli
from repro.cli import build_world, main
from repro.core.pipeline import Pipeline, PipelineConfig, PipelineResult, run_pipeline
from repro.core.sanitize import REJECT_CATEGORIES
from repro.obs.export import validate_jsonl
from repro.serve.cli import main as serve_main
from repro.serve.http import RankingServer


def serve_and_query(monkeypatch, targets):
    """Patch the daemon so that, once started, it answers ``targets``
    over HTTP and shuts down instead of serving forever; returns the
    JSON bodies it answered."""
    bodies = []
    serve = RankingServer.serve_forever

    def serve_forever(server):
        thread = threading.Thread(target=serve, args=(server,), daemon=True)
        thread.start()
        for target in targets:
            url = f"http://127.0.0.1:{server.port}{target}"
            with urllib.request.urlopen(url) as response:
                bodies.append(json.loads(response.read()))
        server.shutdown()
        thread.join(timeout=5)

    monkeypatch.setattr(RankingServer, "serve_forever", serve_forever)
    return bodies


def count_computed(monkeypatch):
    """Record every ranking the pipeline computes from here on."""
    computed = []
    compute = PipelineResult._compute_ranking
    monkeypatch.setattr(
        PipelineResult, "_compute_ranking",
        lambda self, *unit: computed.append(unit) or compute(self, *unit),
    )
    return computed


class TestBuildWorld:
    def test_named_worlds(self):
        assert build_world("small", 0).summary()["ases"] < 100
        assert build_world("paper2021", 0).name == "paper:2021-04"
        assert build_world("paper2023", 0).name == "paper:2023-03"

    def test_unknown_world(self):
        with pytest.raises(ValueError):
            build_world("tiny", 0)


class TestCommands:
    def test_world_summary(self, capsys):
        assert main(["--world", "small", "world"]) == 0
        out = capsys.readouterr().out
        assert "ases" in out and "vps" in out

    def test_rank(self, capsys):
        assert main(["--world", "small", "rank", "AHN", "AU", "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "AHN:AU" in out

    def test_filter_report(self, capsys):
        assert main(["--world", "small", "filter"]) == 0
        out = capsys.readouterr().out
        assert "accepted" in out

    def test_case_study(self, capsys):
        assert main(["--world", "small", "case-study", "AU"]) == 0
        out = capsys.readouterr().out
        assert "CCI" in out and "AHN" in out

    def test_census(self, capsys):
        assert main(["--world", "small", "census"]) == 0
        assert "VP IPs" in capsys.readouterr().out

    def test_report(self, capsys):
        assert main(["--world", "small", "report", "AU"]) == 0
        out = capsys.readouterr().out
        assert "# Internet profile: AU" in out
        assert "Market concentration" in out

    def test_release(self, capsys, tmp_path):
        target = tmp_path / "bundle"
        assert main([
            "--world", "small", "release", str(target), "--countries", "AU",
        ]) == 0
        assert (target / "manifest.json").exists()

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main(["--world", "small"])


class TestTraceCommand:
    def test_stage_report_drops_match_filter_report(self, capsys):
        assert main(["--world", "small", "trace"]) == 0
        out = capsys.readouterr().out
        assert "pipeline stage report" in out
        assert "sanitize" in out

        # The same world/seed, run directly: the report's Table-1 drop
        # counts must match the FilterReport exactly.
        result = run_pipeline(build_world("small", 0), PipelineConfig(seed=0))
        report = result.paths.report
        section = out.split("-- sanitize drops")[1].split("\n--")[0]
        drop_lines = {
            parts[0]: int(parts[1])
            for parts in (line.split() for line in section.splitlines())
            if parts and parts[0] in REJECT_CATEGORIES
        }
        for category in REJECT_CATEGORIES:
            assert drop_lines[category] == report.rejected[category], category

    def test_stage_report_prints_sanitize_phases(self, capsys):
        assert main(["--world", "small", "trace"]) == 0
        out = capsys.readouterr().out
        rows = out.split("-- sanitize drops")[0].splitlines()
        [parent] = [
            index for index, line in enumerate(rows)
            if line.split() and line.split()[0] == "sanitize"
        ]
        indent = len(rows[parent]) - len(rows[parent].lstrip())
        for phase in ("sanitize.paths", "sanitize.fates", "sanitize.rows"):
            lines = [line for line in rows if line.split()[:1] == [phase]]
            assert lines, phase
            for line in lines:
                assert len(line) - len(line.lstrip()) == indent + 2, line

    def test_json_mode_emits_schema_valid_spans(self, capsys):
        assert main(["--world", "small", "trace", "--json"]) == 0
        out = capsys.readouterr().out
        assert validate_jsonl(out) == []
        events = [json.loads(line) for line in out.splitlines() if line.strip()]
        stages = {e["name"] for e in events if e["type"] == "span"}
        required = {
            "ribs", "sanitize", "geolocate", "views", "cone", "hegemony",
            "ahc", "cti", "ranking",
        }
        assert required <= stages
        assert len(stages) >= 8

    def test_prom_mode(self, capsys):
        assert main(["--world", "small", "trace", "--prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_sanitize_input_total counter" in out
        assert "repro_sanitize_accepted_total" in out

    def test_country_option(self, capsys):
        assert main(["--world", "small", "trace", "--country", "AU"]) == 0
        assert "stage report" in capsys.readouterr().out


class TestSweep:
    def test_default_metrics(self, capsys):
        assert main(["--world", "small", "sweep", "--countries", "AU", "-k", "3"]) == 0
        out = capsys.readouterr().out
        for metric in ("CCI", "CCN", "AHI", "AHN"):
            assert f"{metric}:AU" in out

    def test_metric_and_country_lists(self, capsys):
        assert main([
            "--world", "small", "sweep",
            "--metrics", "cti,ahi", "--countries", "AU,US", "-k", "2",
        ]) == 0
        out = capsys.readouterr().out
        for header in ("CTI:AU", "CTI:US", "AHI:AU", "AHI:US"):
            assert header in out

    def test_unknown_metric(self, capsys):
        assert main(["--world", "small", "sweep", "--metrics", "CCI,NOPE"]) == 2
        assert "unknown metric" in capsys.readouterr().err

    def test_unknown_country(self, capsys):
        assert main(["--world", "small", "sweep", "--countries", "AU,??"]) == 2
        assert "unknown country" in capsys.readouterr().err


class TestSweepCheckpoint:
    ARGS = [
        "--world", "small", "sweep",
        "--metrics", "AHN", "--countries", "AU", "-k", "2",
    ]

    def test_checkpoint_then_resume(self, capsys, tmp_path):
        path = tmp_path / "sweep.ck"
        assert main(self.ARGS + ["--checkpoint", str(path)]) == 0
        first = capsys.readouterr().out
        assert path.is_file()
        assert main(self.ARGS + ["--checkpoint", str(path), "--resume"]) == 0
        assert capsys.readouterr().out == first  # byte-identical resume

    def test_resume_requires_checkpoint(self, capsys):
        assert main(self.ARGS + ["--resume"]) == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_resume_keys_on_world_content(self, capsys, tmp_path, monkeypatch):
        """A world regenerated with different content under the same
        name and seed must recompute, not resume the stale rankings."""
        path = tmp_path / "sweep.ck"
        assert main(self.ARGS + ["--checkpoint", str(path)]) == 0
        stale = capsys.readouterr().out
        build = cli.build_world
        monkeypatch.setattr(
            cli, "build_world", lambda kind, seed: build(kind, seed + 1)
        )
        assert main(self.ARGS) == 0
        fresh = capsys.readouterr().out
        assert fresh != stale
        assert main(self.ARGS + ["--checkpoint", str(path), "--resume"]) == 0
        assert capsys.readouterr().out == fresh

    def test_torn_checkpoint_resume_byte_identical(self, capsys, tmp_path):
        """A crash mid-append leaves a torn trailing line; the resumed
        sweep must still produce byte-identical output."""
        import warnings

        args = [
            "--world", "small", "sweep",
            "--metrics", "AHN,CCI", "--countries", "AU", "-k", "2",
        ]
        path = tmp_path / "sweep.ck"
        assert main(args + ["--checkpoint", str(path)]) == 0
        first = capsys.readouterr().out
        raw = path.read_bytes()
        torn_at = raw.rstrip(b"\n").rfind(b"\n") + 1
        path.write_bytes(raw[: (torn_at + len(raw)) // 2])  # tear mid-line
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(args + ["--checkpoint", str(path), "--resume"]) == 0
        assert capsys.readouterr().out == first


    def test_reordered_and_narrowed_sweeps_resume_shared_units(
        self, capsys, tmp_path, monkeypatch
    ):
        path = tmp_path / "sweep.ck"
        sweep = ["--world", "small", "sweep", "-k", "2"]
        assert main(sweep + [
            "--metrics", "AHN,CCN", "--countries", "AU,US",
            "--checkpoint", str(path),
        ]) == 0
        for request in (
            ["--metrics", "CCN,AHN", "--countries", "US,AU"],
            ["--metrics", "AHN", "--countries", "AU,US"],
            ["--metrics", "CCN", "--countries", "US"],
        ):
            capsys.readouterr()
            assert main(sweep + request) == 0
            uninterrupted = capsys.readouterr().out
            computed = count_computed(monkeypatch)
            assert main(sweep + request + [
                "--checkpoint", str(path), "--resume",
            ]) == 0
            assert capsys.readouterr().out == uninterrupted
            assert computed == []
            monkeypatch.undo()

    def test_checkpoint_warms_the_daemon(self, capsys, tmp_path, monkeypatch):
        """A sweep's file is a ``repro-serve --store`` file: every unit
        it banks is answered from the store."""
        path = tmp_path / "sweep.ck"
        assert main([
            "--world", "small", "sweep", "--metrics", "AHN,CCN",
            "--countries", "AU,US", "--checkpoint", str(path),
        ]) == 0
        targets = [
            f"/rank?metric={metric}&country={country}"
            for metric in ("AHN", "CCN") for country in ("AU", "US")
        ]
        bodies = serve_and_query(monkeypatch, targets)
        assert serve_main([
            "--world", "small", "--port", "0", "--store", str(path),
        ]) == 0
        assert [body["source"] for body in bodies] == ["store"] * 4

    @pytest.mark.parametrize("field,value", [
        ("entries", "garbage"), ("metric", "CCN:US"),
    ])
    def test_damaged_unit_is_recomputed(self, capsys, tmp_path, field, value):
        """A banked unit that does not decode as its own ranking counts
        as missing: it is recomputed and banked again, and the later
        line wins on the next open."""
        path = tmp_path / "sweep.ck"
        args = self.ARGS + ["--checkpoint", str(path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        header, unit = path.read_text().splitlines()
        entry = json.loads(unit)
        entry["payload"][field] = value
        path.write_text(f"{header}\n{json.dumps(entry)}\n")
        with pytest.warns(RuntimeWarning, match="damaged"):
            assert main(args + ["--resume"]) == 0
        assert capsys.readouterr().out == first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args + ["--resume"]) == 0
        assert capsys.readouterr().out == first


class TestWatch:
    ARGS = ["watch", "small@0", "small@1", "--metrics", "AHN", "--countries", "AU"]

    def test_summary_output(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "== watch ==" in out
        assert "small@0 -> small@1" in out

    def test_json_mode_emits_schema_valid_events(self, capsys):
        from tests.monitor.event_schema import validate_watch_jsonl

        assert main(self.ARGS + ["--json"]) == 0
        out = capsys.readouterr().out
        assert validate_watch_jsonl(out) == []
        kinds = {json.loads(line)["type"] for line in out.splitlines() if line.strip()}
        assert {"snapshot", "ranking", "drift"} <= kinds

    def test_prom_mode(self, capsys):
        assert main(self.ARGS + ["--prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_monitor_events_total counter" in out
        assert "repro_monitor_drifts_total" in out

    def test_trace_mode_appends_monitor_section(self, capsys):
        assert main(self.ARGS + ["--trace"]) == 0
        out = capsys.readouterr().out
        assert "watch stage report" in out
        assert "monitor (watch run stats)" in out

    def test_checkpoint_then_resume_byte_identical(self, capsys, tmp_path):
        path = tmp_path / "watch.ck"
        args = self.ARGS + ["--json", "--checkpoint", str(path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert path.is_file()
        assert main(args + ["--resume"]) == 0
        assert capsys.readouterr().out == first

    def test_unknown_metric(self, capsys):
        assert main(["watch", "small@0", "small@1", "--metrics", "XXX"]) == 2
        assert "unknown metric" in capsys.readouterr().err

    def test_bad_country_shape(self, capsys):
        """A code of any shape reads the grid's text: the world's."""
        assert main(self.ARGS[:-1] + ["AUS"]) == 2
        with pytest.raises(ValueError) as caught:
            build_world("small", 0).country_code("AUS")
        assert capsys.readouterr().err == f"repro-rank: error: {caught.value}\n"

    def test_unresolvable_snapshot(self, capsys):
        assert main(["watch", "small@0", "nonexistent.jsonl"]) == 2
        assert "not a known world" in capsys.readouterr().err

    def test_bad_seed(self, capsys):
        assert main(["watch", "small@x", "small@1"]) == 2
        assert "not an integer" in capsys.readouterr().err

    def test_too_few_snapshots(self, capsys):
        assert main(["watch", "small@0"]) == 2
        assert "at least 2" in capsys.readouterr().err

    def test_resume_requires_checkpoint(self, capsys):
        assert main(self.ARGS + ["--resume"]) == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_bad_threshold(self, capsys):
        assert main(self.ARGS + ["--tau-threshold", "3.0"]) == 2
        assert "tau threshold" in capsys.readouterr().err

    def test_non_replayable_metric_on_release(self, capsys, tmp_path):
        day = tmp_path / "day.jsonl"
        day.write_text("")
        assert main(["watch", "small@0", str(day), "--metrics", "CTI"]) == 2
        assert "cannot be replayed" in capsys.readouterr().err


class TestValidation:
    def test_unknown_metric(self, capsys):
        assert main(["--world", "small", "rank", "XXX"]) == 2
        err = capsys.readouterr().err
        assert "unknown metric 'XXX'" in err
        assert "CCI" in err  # lists the valid choices

    def test_unknown_country(self, capsys):
        assert main(["--world", "small", "rank", "AHN", "ZZ"]) == 2
        assert "unknown country 'ZZ'" in capsys.readouterr().err

    def test_country_metric_without_country(self, capsys):
        assert main(["--world", "small", "rank", "AHN"]) == 2
        assert "requires a country" in capsys.readouterr().err

    def test_lowercase_inputs_accepted(self, capsys):
        assert main(["--world", "small", "rank", "ahg", "-k", "2"]) == 0
        assert "AHG" in capsys.readouterr().out

    def test_case_study_unknown_country(self, capsys):
        assert main(["--world", "small", "case-study", "QQ"]) == 2
        assert "unknown country" in capsys.readouterr().err

    def test_stability_unknown_metric(self, capsys):
        assert main(["--world", "small", "stability", "AU", "BOGUS"]) == 2
        assert "unknown metric" in capsys.readouterr().err

    def test_concentration_unknown_country(self, capsys):
        assert main(["--world", "small", "concentration", "AU,??"]) == 2
        assert "unknown country" in capsys.readouterr().err

    def test_disconnect_bad_target(self, capsys):
        assert main(["--world", "small", "disconnect", "1,2,x"]) == 2
        assert "neither a country code nor" in capsys.readouterr().err

    def test_disconnect_unknown_country(self, capsys):
        assert main(["--world", "small", "disconnect", "qq"]) == 2
        assert "unknown country" in capsys.readouterr().err

    def test_trace_unknown_country(self, capsys):
        assert main(["--world", "small", "trace", "--country", "ZZ"]) == 2
        assert "unknown country" in capsys.readouterr().err

    def test_replay_unknown_metric(self, capsys):
        assert main(["replay", "nonexistent.jsonl", "NOPE"]) == 2
        assert "unknown metric" in capsys.readouterr().err

    def test_sweep_empty_metrics(self, capsys):
        assert main(["--world", "small", "sweep", "--metrics", ""]) == 2
        assert "--metrics needs at least one" in capsys.readouterr().err

    def test_sweep_empty_countries(self, capsys):
        assert main(["--world", "small", "sweep", "--countries", ","]) == 2
        assert "--countries needs at least one" in capsys.readouterr().err

    def test_release_unknown_country(self, capsys, tmp_path):
        target = tmp_path / "bundle"
        assert main([
            "--world", "small", "release", str(target), "--countries", "AU,ZZ",
        ]) == 2
        assert "unknown country 'ZZ'" in capsys.readouterr().err
        assert not target.exists()  # nothing written before the failure

    def test_replay_unplayable_metric(self, capsys):
        assert main(["replay", "nonexistent.jsonl", "AHC"]) == 2
        assert "cannot be replayed" in capsys.readouterr().err

    def test_replay_country_metric_without_country(self, capsys, tmp_path):
        paths_file = self._release_paths(tmp_path)
        assert main(["replay", paths_file, "AHN"]) == 2
        assert "requires a country" in capsys.readouterr().err

    def test_replay_unknown_country(self, capsys, tmp_path):
        paths_file = self._release_paths(tmp_path)
        assert main(["replay", paths_file, "AHN", "ZZ"]) == 2
        err = capsys.readouterr().err
        assert "unknown country 'ZZ'" in err

    def test_replay_known_country_accepted(self, capsys, tmp_path):
        paths_file = self._release_paths(tmp_path)
        assert main(["replay", paths_file, "AHN", "au", "-k", "2"]) == 0
        assert "AHN:AU" in capsys.readouterr().out

    @staticmethod
    def _release_paths(tmp_path):
        target = tmp_path / "bundle"
        assert main([
            "--world", "small", "release", str(target), "--countries", "AU",
        ]) == 0
        return str(target / "paths.jsonl")


class TestWatchResume:
    def test_resume_recomputes_a_rewritten_release(self, capsys, tmp_path):
        from repro.io.export import export_pathset_jsonl

        def release(path, seed):
            result = run_pipeline(
                build_world("small", seed), PipelineConfig(seed=seed)
            )
            export_pathset_jsonl(result.paths, path)

        day1, day2 = tmp_path / "day1.jsonl", tmp_path / "day2.jsonl"
        release(day1, 0)
        release(day2, 1)
        argv = [
            "watch", str(day1), str(day2), "--metrics", "AHN,CCI",
            "--countries", "AU", "--json",
        ]
        checkpoint = ["--checkpoint", str(tmp_path / "watch.ck")]
        assert main(argv + checkpoint) == 0
        banked = capsys.readouterr().out
        release(day1, 2)  # rewritten in place under the same name
        assert main(argv + checkpoint + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        assert main(argv) == 0
        fresh = capsys.readouterr().out
        assert fresh != banked
        assert resumed == fresh


    ARGS = ["watch", "small@0", "small@1", "--metrics", "AHN", "--countries", "AU"]

    def test_regenerated_world_recomputes_its_snapshot(
        self, capsys, tmp_path, monkeypatch
    ):
        """A world regenerated with other content under the same label
        is ranked afresh, not replayed from the bank."""
        from repro.monitor import snapshots

        argv = self.ARGS + ["--json"]
        checkpoint = ["--checkpoint", str(tmp_path / "watch.ck")]
        assert main(argv + checkpoint) == 0
        banked = capsys.readouterr().out
        build = snapshots.build_world
        monkeypatch.setattr(
            snapshots, "build_world",
            lambda name, seed: build(name, seed + 7 if seed == 0 else seed),
        )
        assert main(argv) == 0
        fresh = capsys.readouterr().out
        assert fresh != banked
        assert main(argv + checkpoint + ["--resume"]) == 0
        assert capsys.readouterr().out == fresh

    def test_changed_top_or_threshold_resumes_every_unit(self, capsys, tmp_path):
        checkpoint = ["--checkpoint", str(tmp_path / "watch.ck")]
        assert main(self.ARGS + ["--top", "5"] + checkpoint) == 0
        changed = self.ARGS + [
            "--top", "6", "--tau-threshold", "0.5", "--ndcg-threshold", "0.5",
        ]
        assert main(changed + ["--json"]) == 0
        capsys.readouterr()
        assert main(changed + checkpoint + ["--resume"]) == 0
        assert "rankings: 0 computed, 2 resumed" in capsys.readouterr().out
        assert main(changed + ["--json"]) == 0
        fresh = capsys.readouterr().out
        assert main(changed + ["--json"] + checkpoint + ["--resume"]) == 0
        assert capsys.readouterr().out == fresh


class TestUnusableStorePath:
    """An unusable ``--checkpoint``/``--store`` path exits 2 with one
    line on stderr before the pipeline runs."""

    @pytest.fixture(params=["missing/store.ck", "."])
    def bad_path(self, request, tmp_path, monkeypatch):
        def ran(*args, **kwargs):
            raise AssertionError("the pipeline ran")

        monkeypatch.setattr(Pipeline, "run", ran)
        monkeypatch.setattr(RankingServer, "serve_forever", lambda server: None)
        return str(tmp_path / request.param)

    @pytest.mark.parametrize("argv", [
        ["--world", "small", "sweep", "--countries", "AU", "--checkpoint"],
        ["watch", "small@0", "small@1", "--checkpoint"],
        ["--world", "small", "serve", "--port", "0", "--store"],
    ], ids=["sweep", "watch", "serve"])
    def test_repro_rank(self, capsys, bad_path, argv):
        assert main(argv + [bad_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-rank: error: checkpoint ")
        assert "cannot open" in err and err.count("\n") == 1

    def test_repro_serve(self, capsys, bad_path):
        assert serve_main([
            "--world", "small", "--port", "0", "--store", bad_path,
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-serve: error: checkpoint ")
        assert "cannot open" in err and err.count("\n") == 1


class TestTraceDiff:
    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        import contextlib
        import io

        directory = tmp_path_factory.mktemp("traces")
        paths = []
        for seed in (0, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main([
                    "--world", "small", "--seed", str(seed), "trace", "--json",
                ]) == 0
            path = directory / f"trace{seed}.jsonl"
            path.write_text(out.getvalue())
            paths.append(path)
        return paths

    def test_per_span_rows(self, capsys, traces):
        assert main(["trace", "--diff", str(traces[0]), str(traces[1])]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == [
            "span", "old", "wall", "new", "wall", "delta", "ratio",
            "old", "self", "new", "self", "delta", "ratio",
        ]
        names = [line.split()[0] for line in lines[1:]]
        first_seen = []
        for line in traces[0].read_text().splitlines():
            event = json.loads(line)
            if event["type"] == "span" and event["name"] not in first_seen:
                first_seen.append(event["name"])
        assert names == first_seen
        for name in ("propagate", "ribs.paths", "ribs.inject", "sanitize.rows"):
            assert name in names
        row = lines[1 + names.index("ribs.paths")].split()
        # a leaf span's self time is its wall time
        assert row[1:4] == row[5:8]

    def test_same_trace_has_zero_deltas(self, capsys, traces):
        assert main(["trace", "--diff", str(traces[0]), str(traces[0])]) == 0
        for line in capsys.readouterr().out.splitlines()[1:]:
            cells = line.split()
            assert cells[3] == "+0.0ms" and cells[7] == "+0.0ms"

    def test_malformed_trace_exits_2(self, capsys, traces, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(traces[0].read_text() + '{"type": "span", "name": ""}\n')
        assert main(["trace", "--diff", str(traces[0]), str(bad)]) == 2
        err = capsys.readouterr().err
        assert "malformed trace" in err and "bad.jsonl" in err


class TestFlagSanity:
    """Malformed numeric flags exit 2 with a message, never a traceback."""

    @pytest.mark.parametrize("argv,message", [
        (["--world", "small", "rank", "AHN", "AU", "-k", "0"],
         "-k must be >= 1"),
        (["--world", "small", "sweep", "--countries", "AU", "-k", "-3"],
         "-k must be >= 1"),
        (["replay", "nonexistent.jsonl", "AHN", "AU", "-k", "0"],
         "-k must be >= 1"),  # rejected before the paths file is touched
        (["--world", "small", "stability", "AU", "--trials", "0"],
         "--trials must be >= 1"),
        (["--world", "small", "sweep", "--metrics", ","],
         "--metrics needs at least one metric name"),
        (["watch", "small@0", "small@1", "--top", "0"],
         "top must be >= 1"),
        (["watch", "small@0", "small@1", "--countries", ","],
         "--countries needs at least one country code"),
    ])
    def test_exit_2_with_message(self, capsys, argv, message):
        assert main(argv) == 2
        assert message in capsys.readouterr().err


class TestClosedPipe:
    """A reader that closes stdout before ``repro-rank`` writes (``...
    | head -1``) ends the run quietly with ``EXIT_PIPE``."""

    @pytest.mark.parametrize("k", ["1", "5000"], ids=["buffered", "overflowing"])
    def test_quiet_exit(self, tmp_path, k):
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        with open(tmp_path / "stderr", "wb") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "--world", "small",
                 "rank", "CCG", "-k", k],
                stdout=subprocess.PIPE, stderr=stderr, env=env, cwd=tmp_path,
            )
        proc.stdout.close()  # the child is still building its world
        assert proc.wait(timeout=120) == cli.EXIT_PIPE == 141
        assert (tmp_path / "stderr").read_bytes() == b""


class TestServeValidation:
    """The serve flags follow the same exit-2 discipline."""

    @pytest.mark.parametrize("argv,message", [
        (["serve", "--port", "70000"], "--port must be in 0..65535"),
        (["serve", "--port", "-1"], "--port must be in 0..65535"),
        (["serve", "--max-requests", "0"], "--max-requests must be >= 1"),
        (["serve", "--no-resume"], "--no-resume requires --store"),
        (["serve", "--precompute", ""],
         "--precompute needs at least one metric"),
        (["serve", "--precompute", "NOPE"], "unknown metric 'NOPE'"),
        (["serve", "--precompute", "AHN", "--countries", ","],
         "--countries needs at least one country"),
        (["serve", "--precompute", "AHN", "--countries", "AU,ZZ"],
         "unknown country 'ZZ'"),
        # the backend flags precede the subcommand; serve's own --store
        # is its bank path
        (["--store", "mmap", "serve", "--store", "bank.ck"],
         "--store mmap and --spill-dir do not apply to serve"),
        (["--spill-dir", "spill", "serve"],
         "--store mmap and --spill-dir do not apply to serve"),
    ])
    def test_exit_2_with_message(self, capsys, argv, message):
        assert main(["--world", "small"] + argv) == 2
        err = capsys.readouterr().err
        assert "repro-rank: error:" in err
        assert message in err

    def test_standalone_entry_point(self, capsys):
        from repro.serve.cli import main as serve_main

        assert serve_main(["--port", "99999"]) == 2
        assert "repro-serve: error:" in capsys.readouterr().err
