"""The linter's command line: the ``repro-lint`` entry point, and the
``repro-rank lint`` subcommand, which hands every argument after
``lint`` to it — so both print the same report and return the same
status for the same arguments."""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.obs.trace as trace
from repro.cli import main as repro_rank
from repro.lint.cli import build_parser
from repro.lint.cli import main as repro_lint

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def dirty_file(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("def f(score):\n    return score == 0.5\n")
    return target


class TestReproLint:
    def test_list_rules(self, capsys):
        assert repro_lint(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("R001", "R008"):
            assert rule_id in out
        assert "protects:" in out

    def test_default_paths_are_what_make_lint_gates(self):
        assert build_parser().parse_args([]).paths == ["src", "tests"]

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text("def f():\n    return 1\n")
        assert repro_lint([str(target)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, dirty_file, capsys):
        assert repro_lint([str(dirty_file)]) == 1
        out = capsys.readouterr().out
        assert "R004" in out and "1 finding(s)" in out

    def test_json_format(self, dirty_file, capsys):
        assert repro_lint([str(dirty_file), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["findings"] == 1
        assert payload["findings"][0]["rule"] == "R004"

    def test_sarif_format(self, dirty_file, capsys):
        assert repro_lint([str(dirty_file), "--format", "sarif"]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["results"][0]["ruleId"] == "R004"

    def test_select_subset(self, dirty_file):
        assert repro_lint([str(dirty_file), "--select", "R001"]) == 0

    def test_unknown_rule_is_usage_error(self, dirty_file):
        with pytest.raises(SystemExit) as excinfo:
            repro_lint([str(dirty_file), "--select", "R999"])
        assert excinfo.value.code == 2

    def test_max_seconds_guard_trips(self, dirty_file, capsys):
        assert repro_lint([str(dirty_file), "--max-seconds", "0.0"]) == 3
        assert "--max-seconds" in capsys.readouterr().err

    def test_max_seconds_guard_passes_when_generous(self, tmp_path):
        target = tmp_path / "ok.py"
        target.write_text("x = 1\n")
        assert repro_lint([str(target), "--max-seconds", "60"]) == 0

    def test_stats_breakdown(self, dirty_file, capsys):
        repro_lint([str(dirty_file), "--stats"])
        out = capsys.readouterr().out
        assert "findings by rule:" in out
        assert "float-equality" in out

    def test_trace_reports_lint_metrics(self, dirty_file, capsys):
        assert repro_lint([str(dirty_file), "--format", "json", "--trace"]) == 1
        report, stages = capsys.readouterr().out.split("== lint stage report ==")
        assert json.loads(report)["stats"]["findings"] == 1
        assert "lint.files" in stages and "lint.findings.r004" in stages


class TestReproRankLint:
    def test_subcommand_on_fixture(self, capsys):
        fixture = FIXTURES / "r006_pos.py"
        assert repro_rank(["lint", str(fixture)]) == 1
        assert "R006" in capsys.readouterr().out

    def test_subcommand_json(self, capsys):
        fixture = FIXTURES / "r006_pos.py"
        assert repro_rank(["lint", str(fixture), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["findings"] == 2

    def test_subcommand_sarif(self, capsys):
        fixture = FIXTURES / "r006_pos.py"
        assert repro_rank(["lint", str(fixture), "--format", "sarif"]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["runs"][0]["tool"]["driver"]["name"] == "repro-lint"

    def test_subcommand_trace_reports_lint_metrics(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text("def f():\n    return 1\n")
        assert repro_rank(["lint", str(target), "--trace"]) == 0
        out = capsys.readouterr().out
        assert "lint stage report" in out
        assert "lint.files" in out

    def test_usage_errors_come_from_repro_lint(self, dirty_file, capsys):
        for front in (repro_lint, lambda argv: repro_rank(["lint", *argv])):
            with pytest.raises(SystemExit) as excinfo:
                front([str(dirty_file), "--json"])
            assert excinfo.value.code == 2
            assert "repro-lint: error:" in capsys.readouterr().err


#: arguments after a fixture's path, one set per output surface
VARIANTS = {
    "text": [],
    "json": ["--format", "json"],
    "sarif": ["--format", "sarif"],
    "select": ["--select", "R001,R004"],
    "trace": ["--trace"],
}


@pytest.fixture
def still_tracer(monkeypatch):
    """The tracer's clocks read 0 and it samples no RSS, so a
    ``--trace`` stage report prints the same figures on every run."""
    monkeypatch.setattr(trace, "time", SimpleNamespace(
        perf_counter=lambda: 0.0, process_time=lambda: 0.0,
    ))
    monkeypatch.setattr(trace, "peak_rss_bytes", lambda: None)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize(
    "fixture", sorted(FIXTURES.glob("r00*.py")), ids=lambda path: path.stem,
)
def test_both_fronts_print_alike(fixture, variant, still_tracer, capsys):
    argv = [str(fixture), *VARIANTS[variant]]
    status = repro_lint(argv)
    out = capsys.readouterr().out
    assert repro_rank(["lint", *argv]) == status
    assert capsys.readouterr().out == out
    assert out.strip()
