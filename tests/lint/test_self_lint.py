"""The repo must lint clean against its own rules.

``repro-lint src/ tests/`` (against the checked-in baseline) exiting 0
is an acceptance gate: a PR that introduces an unseeded RNG, a
wall-clock read, hash-ordered output, or a float ``==`` on a score
fails here before any behavioral test notices. The runtime guard keeps
the gate cheap enough to chain into ``make test`` always.
"""

from pathlib import Path

import pytest

from repro.lint import Baseline, LintConfig, run_lint
from repro.obs.trace import Tracer

REPO = Path(__file__).parents[2]

#: the `make lint` budget; the lint span must come in under this
MAX_SECONDS = 5.0


@pytest.fixture(scope="module")
def self_lint():
    """One lint run over the tree, shared by every test here."""
    baseline = Baseline.load(REPO / "lint-baseline.json")
    tracer = Tracer()
    result = run_lint(
        [str(REPO / "src"), str(REPO / "tests")],
        LintConfig(baseline=baseline),
        tracer,
    )
    return result, tracer


def test_repo_is_lint_clean(self_lint):
    result, _ = self_lint
    rendered = "\n".join(f.render() for f in result.findings)
    assert result.ok(), f"self-lint found violations:\n{rendered}"


def test_baseline_has_no_stale_entries_and_justifications(self_lint):
    result, _ = self_lint
    assert result.stale_baseline == [], (
        "baseline entries no longer match any finding — remove them: "
        f"{result.stale_baseline}"
    )
    for entry in Baseline.load(REPO / "lint-baseline.json").entries:
        assert entry.justification.strip(), (
            f"baseline entry for {entry.path} lacks a justification"
        )


def test_self_lint_covers_the_whole_tree(self_lint):
    result, _ = self_lint
    assert result.files_scanned > 100


def test_self_lint_is_fast_enough_to_gate_every_run(self_lint):
    _, tracer = self_lint
    elapsed = tracer.find("lint")[0].dur_s
    assert elapsed < MAX_SECONDS, (
        f"self-lint took {elapsed:.2f}s — over the {MAX_SECONDS}s "
        "make-lint budget"
    )
