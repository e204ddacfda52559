"""Whole-program rules (R011, R012) across module boundaries: the
scenarios the per-file tier cannot see — a compute callable reaching
an unseeded RNG through a helper in another module, memo guards and
their version bumps — and suppression of program findings through the
ordinary noqa machinery.
"""

import textwrap

import pytest

from repro.lint import LintConfig, lint_source, run_lint

R011 = LintConfig(select=frozenset({"R011"}))
R012 = LintConfig(select=frozenset({"R012"}))


def write(tmp_path, name, module, body):
    target = tmp_path / name
    target.write_text(
        f"# repro-lint: module={module}\n" + textwrap.dedent(body)
    )
    return target


class TestSpecPurityAcrossModules:
    def _tree(self, tmp_path, noqa=""):
        write(tmp_path, "helpers.py", "repro.wfix.helpers", f"""\
            import random

            def jitter(values):
                return [v + random.random() for v in values]{noqa}
            """)
        write(tmp_path, "specs.py", "repro.wfix.specs", """\
            from repro.wfix.helpers import jitter

            class MetricSpec:
                def __init__(self, name, compute):
                    self.name = name
                    self.compute = compute

            def _compute(spec, ctx):
                return jitter(ctx)

            SPEC = MetricSpec(name="m", compute=_compute)
            """)
        return tmp_path

    def test_rng_in_another_module_is_flagged(self, tmp_path):
        result = run_lint([str(self._tree(tmp_path))], R012)
        assert [f.rule_id for f in result.findings] == ["R012"]
        finding = result.findings[0]
        assert "helpers.py" in finding.path
        # the chain names the compute entry, cross-module
        assert "_compute → jitter" in finding.message

    def test_noqa_suppresses_program_finding(self, tmp_path):
        tree = self._tree(tmp_path, noqa="  # repro: noqa[R012]")
        result = run_lint([str(tree)], R012)
        assert result.findings == []
        assert result.suppressed_noqa == 1

    def test_runs_are_deterministic(self, tmp_path):
        tree = self._tree(tmp_path)
        first = run_lint([str(tree)], R012)
        second = run_lint([str(tree)], R012)
        assert [f.as_dict() for f in first.findings] == [
            f.as_dict() for f in second.findings
        ]


class TestMemoCoherence:
    def test_guard_outside_class_is_flagged(self):
        source = textwrap.dedent("""\
            # repro: memo-guard version=_version fields=_edges
            class Graph:
                def __init__(self):
                    self._version = 0
                    self._edges = {}
            """)
        flagged = lint_source(source, "g.py", R011, module="repro.wfix.g")
        assert [f.rule_id for f in flagged] == ["R011"]
        assert "class body" in flagged[0].message

    def test_transitive_bump_through_helper_is_quiet(self):
        source = textwrap.dedent("""\
            class Graph:
                # repro: memo-guard version=_version fields=_edges
                def __init__(self):
                    self._version = 0
                    self._edges = {}

                def add(self, a, b):
                    self._invalidate()
                    self._edges[a] = b

                def _invalidate(self):
                    self._version += 1
            """)
        assert lint_source(
            source, "g.py", R011, module="repro.wfix.g",
        ) == []


class TestSpecPurity:
    def _spec_source(self, compute_body):
        header = textwrap.dedent("""\
            import random
            import time


            class MetricSpec:
                def __init__(self, name, compute):
                    self.name = name
                    self.compute = compute


            def _compute(spec, ctx):
            """)
        footer = '\n\nSPEC = MetricSpec(name="m", compute=_compute)\n'
        return header + textwrap.indent(compute_body, "    ") + footer

    def test_unseeded_rng_in_call_tree_is_flagged(self):
        source = self._spec_source("return random.random()\n")
        flagged = lint_source(
            source, "spec.py", R012, module="repro.wfix.spec",
        )
        assert [f.rule_id for f in flagged] == ["R012"]
        assert "rng" in flagged[0].message.lower()

    def test_clock_outside_allowlist_is_flagged(self):
        source = self._spec_source("return time.perf_counter()\n")
        flagged = lint_source(
            source, "spec.py", R012, module="repro.wfix.spec",
        )
        assert [f.rule_id for f in flagged] == ["R012"]

    def test_clock_in_obs_module_is_allowed(self):
        source = self._spec_source("return time.perf_counter()\n")
        assert lint_source(
            source, "spec.py", R012, module="repro.obs.spec",
        ) == []

    def test_pure_compute_is_quiet(self):
        source = self._spec_source(
            "rng = random.Random(7)\n"
            "return sorted(v + rng.random() for v in ctx)\n"
        )
        assert lint_source(
            source, "spec.py", R012, module="repro.wfix.spec",
        ) == []


class TestRealTree:
    """The rules against the actual src/repro tree: R012 passes clean by
    design and R011 exercises the real ASGraph memo-guard."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_lint(
            ["src/repro"], LintConfig(select=frozenset({"R011", "R012"})),
        )

    def test_src_repro_is_clean(self, result):
        assert result.findings == []
        assert result.files_scanned > 40
