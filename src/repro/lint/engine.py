"""The lint engine: file discovery, one walk per file, suppression.

``run_lint`` is the library entry point used by the ``repro-lint`` CLI,
the ``repro-rank lint`` subcommand, and the self-lint test::

    result = run_lint(["src", "tests"], LintConfig(baseline=baseline))
    assert result.ok()

Pipeline per file: parse once, walk the tree once (:func:`walk`) with
the hooks of every applicable checker, then filter findings through
inline ``# repro: noqa[...]`` directives and the baseline. Everything
is deterministic: files are visited in sorted path order and findings
are reported in (path, line, col, rule) order.

Module scoping: rules like R002 (exempt ``repro.obs``) and R007 (only
``repro.perf``) need a dotted module name. It is derived from the path
(anchored at a ``src`` or ``tests`` component) and can be overridden by
a ``# repro-lint: module=<dotted>`` directive in the file's first few
lines — which is how the fixture corpus exercises module-scoped rules
from outside the package tree.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.lint.rules import ALL_RULE_IDS, Finding
from repro.lint.suppress import Baseline, is_suppressed
from repro.lint.visitors import ALL_CHECKERS, FileContext
from repro.obs.trace import NULL_TRACER

#: directory-name components skipped during directory expansion
#: (explicitly named files are always linted)
DEFAULT_EXCLUDES: tuple[str, ...] = ("fixtures", "__pycache__")

_MODULE_DIRECTIVE_RE = re.compile(
    r"#\s*repro-lint:\s*module=([A-Za-z_][A-Za-z0-9_.]*)"
)
#: how many leading lines may carry a ``repro-lint:`` directive
_DIRECTIVE_WINDOW = 5

#: node type → the hooks to call for it
Hooks = dict[type[ast.AST], list[Callable[[Any], None]]]


@dataclass(frozen=True, slots=True)
class LintConfig:
    """Knobs for one lint run."""

    select: frozenset[str] | None = None
    ignore: frozenset[str] = frozenset()
    exclude: tuple[str, ...] = DEFAULT_EXCLUDES
    baseline: Baseline | None = None

    def active_rule_ids(self) -> tuple[str, ...]:
        selected = self.select if self.select is not None else set(ALL_RULE_IDS)
        return tuple(
            rule_id for rule_id in ALL_RULE_IDS
            if rule_id in selected and rule_id not in self.ignore
        )


@dataclass(slots=True)
class LintResult:
    """Everything one run produced."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    suppressed_noqa: int = 0
    suppressed_baseline: int = 0
    parse_errors: list[tuple[str, str]] = field(default_factory=list)
    stale_baseline: list = field(default_factory=list)

    def ok(self) -> bool:
        """Whether the run is clean: no findings, no parse failures,
        and no stale baseline entries (an entry whose finding no longer
        fires is debt the baseline must shed — the run fails until the
        entry is removed)."""
        return (
            not self.findings
            and not self.parse_errors
            and not self.stale_baseline
        )

    def findings_by_rule(self) -> dict[str, int]:
        """Unsuppressed finding count per rule id (all rules, sorted)."""
        counts = {rule_id: 0 for rule_id in ALL_RULE_IDS}
        for finding in self.findings:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return counts

    def stats(self) -> dict[str, object]:
        return {
            "files_scanned": self.files_scanned,
            "findings": len(self.findings),
            "findings_by_rule": self.findings_by_rule(),
            "suppressed_noqa": self.suppressed_noqa,
            "suppressed_baseline": self.suppressed_baseline,
            "stale_baseline": len(self.stale_baseline),
            "parse_errors": len(self.parse_errors),
        }


def iter_python_files(
    paths: list[str], exclude: tuple[str, ...] = DEFAULT_EXCLUDES
) -> list[Path]:
    """Every ``.py`` file under the given paths, sorted and deduplicated.

    Directory arguments are expanded recursively, skipping any
    directory whose name is in ``exclude`` or starts with a dot; file
    arguments are taken as-is (so fixtures can be linted explicitly).
    """
    excluded = set(exclude)
    out: dict[Path, None] = {}
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            out.setdefault(path)
            continue
        for candidate in sorted(path.rglob("*.py")):
            relative = candidate.relative_to(path)
            parts = relative.parts[:-1]
            if any(part in excluded or part.startswith(".") for part in parts):
                continue
            out.setdefault(candidate)
    return sorted(out)


def module_name(path: Path, source: str | None = None) -> str:
    """The dotted module name used for rule scoping.

    Honors a ``# repro-lint: module=...`` directive in the first few
    lines; otherwise anchors at the last ``src`` component (package
    layout) or the last ``tests`` component, falling back to the stem.
    """
    if source is not None:
        for line in source.splitlines()[:_DIRECTIVE_WINDOW]:
            match = _MODULE_DIRECTIVE_RE.search(line)
            if match is not None:
                return match.group(1)
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    for anchor in ("src", "tests"):
        if anchor in parts:
            index = len(parts) - 1 - parts[::-1].index(anchor)
            tail = parts[index + 1:] if anchor == "src" else parts[index:]
            if tail:
                return ".".join(tail)
    return parts[-1] if parts else ""


def walk(tree: ast.AST, enter: Hooks, leave: Hooks) -> None:
    """One pre-order traversal of ``tree``.

    For each node: the ``enter`` hooks registered for its type, then
    its children in field order (the order :class:`ast.NodeVisitor`
    visits them in), then its ``leave`` hooks.
    """
    stack: list[Any] = [tree]
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            # a node whose subtree is done: run its leave hooks
            hooks, node = node
            for hook in hooks:
                hook(node)
            continue
        kind = type(node)
        hooks = enter.get(kind)
        if hooks is not None:
            for hook in hooks:
                hook(node)
        hooks = leave.get(kind)
        if hooks is not None:
            stack.append((hooks, node))
        children: list[ast.AST] = []
        for name in node._fields:
            value = getattr(node, name, None)
            if isinstance(value, list):
                children.extend(
                    item for item in value if isinstance(item, ast.AST)
                )
            elif isinstance(value, ast.AST):
                children.append(value)
        children.reverse()
        stack.extend(children)


def lint_source(
    source: str,
    path: str,
    config: LintConfig | None = None,
    module: str | None = None,
) -> list[Finding]:
    """Lint one source string (raises ``SyntaxError`` on parse failure).

    Findings are rule-filtered (``select`` / ``ignore``) but raw
    otherwise — ``# repro: noqa`` directives and the baseline apply at
    :func:`run_lint` level.
    """
    if config is None:
        config = LintConfig()
    tree = ast.parse(source, filename=path)
    if module is None:
        module = module_name(Path(path), source)
    ctx = FileContext(path=path, module=module, lines=source.splitlines())
    enter: Hooks = {
        ast.Import: [ctx.record_import], ast.ImportFrom: [ctx.record_import],
    }
    leave: Hooks = {}
    active = set(config.active_rule_ids())
    checkers = [
        checker_cls(ctx) for checker_cls in ALL_CHECKERS
        if checker_cls.rule_id in active and checker_cls.applies_to(ctx.module)
    ]
    for checker in checkers:
        for hooks, names in (
            (enter, checker.entry_hooks), (leave, checker.exit_hooks)
        ):
            for node_type, method in names.items():
                hooks.setdefault(node_type, []).append(getattr(checker, method))
    walk(tree, enter, leave)
    findings = [finding for checker in checkers for finding in checker.findings]
    findings.sort(key=Finding.sort_key)
    return findings


def lint_file(
    path: Path, config: LintConfig | None = None, module: str | None = None
) -> list[Finding]:
    """Lint one file from disk (see :func:`lint_source`)."""
    return lint_source(
        path.read_text(encoding="utf-8"),
        path.as_posix(),
        config,
        module,
    )


def run_lint(
    paths: list[str],
    config: LintConfig | None = None,
    tracer=NULL_TRACER,
) -> LintResult:
    """Lint every Python file under ``paths`` and apply suppressions.

    Runs under a ``lint`` tracer span; stats are emitted into the
    tracer's metrics registry by :func:`repro.lint.report.emit_metrics`
    (called by the CLI so library users keep control of when).
    """
    if config is None:
        config = LintConfig()
    result = LintResult()
    with tracer.span("lint", paths=",".join(paths)) as span:
        for path in iter_python_files(paths, config.exclude):
            result.files_scanned += 1
            try:
                raw = lint_file(path, config)
            except SyntaxError as error:
                result.parse_errors.append((path.as_posix(), str(error)))
                continue
            for finding in raw:
                # ``code`` is the flagged line, any noqa comment included
                if is_suppressed(finding, finding.code):
                    result.suppressed_noqa += 1
                elif config.baseline is not None and (
                    config.baseline.suppresses(finding)
                ):
                    result.suppressed_baseline += 1
                else:
                    result.findings.append(finding)
        if config.baseline is not None:
            result.stale_baseline = config.baseline.stale_entries()
        result.findings.sort(key=Finding.sort_key)
        span.set(
            files=result.files_scanned,
            findings=len(result.findings),
            suppressed=result.suppressed_noqa + result.suppressed_baseline,
        )
    return result
