"""Engine semantics: module scoping, file discovery, noqa suppression
and rule selection."""

from pathlib import Path

from repro.lint import LintConfig, lint_source, module_name, run_lint
from repro.lint.suppress import suppressed_rules

REPO = Path(__file__).parents[2]


class TestModuleName:
    def test_src_layout(self):
        assert module_name(Path("src/repro/perf/cache.py")) == "repro.perf.cache"

    def test_src_layout_absolute(self):
        path = Path("/anywhere/repo/src/repro/core/cone.py")
        assert module_name(path) == "repro.core.cone"

    def test_package_init_maps_to_package(self):
        assert module_name(Path("src/repro/lint/__init__.py")) == "repro.lint"

    def test_tests_layout_keeps_tests_anchor(self):
        path = Path("tests/obs/test_trace.py")
        assert module_name(path) == "tests.obs.test_trace"

    def test_directive_override_wins(self):
        source = "# repro-lint: module=repro.perf.fake\nx = 1\n"
        assert module_name(Path("anything.py"), source) == "repro.perf.fake"

    def test_fallback_is_stem(self):
        assert module_name(Path("scratch.py")) == "scratch"


class TestModuleScoping:
    def test_r002_exempts_repro_obs(self):
        source = "import time\n\ndef f():\n    return time.time()\n"
        assert lint_source(source, "x.py", module="repro.obs.trace") == []
        flagged = lint_source(source, "x.py", module="repro.core.cone")
        assert [f.rule_id for f in flagged] == ["R002"]

    def test_r007_only_inside_repro_perf(self):
        source = (
            "class View:\n    pass\n\n"
            "def f(view: View):\n    view.records.append(1)\n"
        )
        assert lint_source(source, "x.py", module="repro.core.views") == []
        flagged = lint_source(source, "x.py", module="repro.perf.index")
        assert [f.rule_id for f in flagged] == ["R007"]


class TestNoqa:
    def test_directive_parsing(self):
        assert suppressed_rules("x = 1") is None
        assert "*" in suppressed_rules("x = 1  # repro: noqa")
        assert suppressed_rules("x = 1  # repro: noqa[R004]") == {"R004"}
        assert suppressed_rules("# repro: noqa[R001, R003]") == {"R001", "R003"}

    def test_inline_noqa_suppresses_only_listed_rule(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "def f(s, t):\n"
            "    if s == 0.5:  # repro: noqa[R004]\n"
            "        return 1\n"
            "    return t == 0.5\n"
        )
        result = run_lint([str(target)])
        assert result.suppressed_noqa == 1
        assert [f.rule_id for f in result.findings] == ["R004"]
        assert result.findings[0].line == 4

    def test_blanket_noqa_suppresses_everything(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("def f(b=[]):  # repro: noqa\n    return b\n")
        result = run_lint([str(target)])
        assert result.ok() and result.suppressed_noqa == 1


class TestDiscoveryAndSelection:
    def test_fixture_directories_are_excluded_from_expansion(self):
        result = run_lint([str(REPO / "tests" / "lint")])
        paths = {Path(f.path).name for f in result.findings}
        assert not any(name.endswith("_pos.py") for name in paths)

    def test_explicit_fixture_file_is_linted(self):
        fixture = REPO / "tests" / "lint" / "fixtures" / "r005_pos.py"
        result = run_lint([str(fixture)])
        assert [f.rule_id for f in result.findings] == ["R005", "R005"]

    def test_select_and_ignore(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "def f(score, b=[]):\n    return score == 0.5\n"
        )
        both = run_lint([str(target)])
        assert {f.rule_id for f in both.findings} == {"R004", "R005"}
        only = run_lint([str(target)], LintConfig(select=frozenset({"R005"})))
        assert {f.rule_id for f in only.findings} == {"R005"}
        without = run_lint([str(target)], LintConfig(ignore=frozenset({"R005"})))
        assert {f.rule_id for f in without.findings} == {"R004"}

    def test_parse_error_is_collected_not_raised(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def f(:\n")
        result = run_lint([str(target)])
        assert not result.ok()
        assert len(result.parse_errors) == 1

    def test_findings_sorted_deterministically(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "def g(b=[]):\n    return b\n\n"
            "def f(score):\n    return score == 0.5\n"
        )
        result = run_lint([str(target)])
        assert [f.line for f in result.findings] == sorted(
            f.line for f in result.findings
        )


class TestStats:
    def test_stats_shape(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("def f(score):\n    return score == 0.5\n")
        result = run_lint([str(target)])
        stats = result.stats()
        assert stats["files_scanned"] == 1
        assert stats["findings"] == 1
        assert stats["findings_by_rule"]["R004"] == 1
        assert stats["findings_by_rule"]["R001"] == 0


class TestMmapStoreProtected:
    def test_r007_covers_the_spill_store(self):
        source = (
            "class MmapPathStore:\n    pass\n\n"
            "def f(store: MmapPathStore):\n    store.tokens.append(1)\n"
        )
        flagged = lint_source(source, "x.py", module="repro.perf.spill")
        assert [f.rule_id for f in flagged] == ["R007"]
