"""repro.lint — an AST-based invariant checker for the pipeline.

The reproduction guarantees byte-identical rankings across runs and
processes and exact cross-metric caches; those invariants are one unseeded
``random.Random()``, one hash-ordered iteration, or one float ``==`` on
a hegemony score away from silently breaking. This package turns them
into machine-checked rules that run as ``repro-lint`` /
``repro-rank lint`` / ``make lint``, in two tiers:

* **per-file** (R001–R008, :mod:`repro.lint.visitors`) — one AST at a
  time;
* **whole-program** (R011–R012, :mod:`repro.lint.wprules`) — a symbol
  table and conservative call graph over every module at once
  (:mod:`repro.lint.callgraph`), answering reachability questions the
  per-file tier cannot: memo/version coherence and transitive purity
  of registry compute callables.

Library use::

    from repro.lint import Baseline, LintConfig, run_lint

    result = run_lint(["src", "tests"],
                      LintConfig(baseline=Baseline.load("lint-baseline.json")))
    assert result.ok(), result.findings
"""

from repro.lint.callgraph import ModuleInfo, Program
from repro.lint.engine import (
    DEFAULT_EXCLUDES,
    LintConfig,
    LintResult,
    iter_python_files,
    lint_file,
    lint_source,
    module_name,
    parse_cached,
    run_lint,
)
from repro.lint.rules import (
    ALL_RULE_IDS,
    PROGRAM_RULE_IDS,
    RULES,
    Finding,
    Rule,
)
from repro.lint.suppress import Baseline, BaselineEntry

__all__ = [
    "ALL_RULE_IDS",
    "Baseline",
    "BaselineEntry",
    "DEFAULT_EXCLUDES",
    "Finding",
    "LintConfig",
    "LintResult",
    "ModuleInfo",
    "PROGRAM_RULE_IDS",
    "Program",
    "RULES",
    "Rule",
    "iter_python_files",
    "lint_file",
    "lint_source",
    "module_name",
    "parse_cached",
    "run_lint",
]
