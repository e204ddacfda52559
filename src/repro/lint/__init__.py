"""repro.lint — an AST-based invariant checker for the pipeline.

The reproduction guarantees byte-identical rankings across runs and
processes and exact cross-metric caches; those invariants are one unseeded
``random.Random()``, one hash-ordered iteration, or one float ``==`` on
a hegemony score away from silently breaking. This package turns them
into machine-checked rules (R001–R008, :mod:`repro.lint.visitors`)
that run as ``repro-lint`` (also ``repro-rank lint``) and ``make lint``. Each
file is parsed once and walked once (:func:`repro.lint.engine.walk`),
every rule reading the node types it needs from that one pass. The
cross-module invariants a per-file rule cannot see — every
``ASGraph`` mutation bumps the structural version its memos key on,
and every registered metric compute is pure — are behavioural tests
(``tests/topology/test_graph_version.py``,
``tests/core/test_compute_purity.py``).

Library use::

    from repro.lint import run_lint

    result = run_lint(["src", "tests"])
    assert result.ok(), result.findings
"""

from repro.lint.engine import (
    DEFAULT_EXCLUDES,
    LintConfig,
    LintResult,
    iter_python_files,
    lint_file,
    lint_source,
    module_name,
    run_lint,
)
from repro.lint.rules import (
    ALL_RULE_IDS,
    RULES,
    Finding,
    Rule,
)

__all__ = [
    "ALL_RULE_IDS",
    "DEFAULT_EXCLUDES",
    "Finding",
    "LintConfig",
    "LintResult",
    "RULES",
    "Rule",
    "iter_python_files",
    "lint_file",
    "lint_source",
    "module_name",
    "run_lint",
]
