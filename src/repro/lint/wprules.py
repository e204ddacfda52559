"""Whole-program rules R011–R012 over the conservative call graph.

Where :mod:`repro.lint.visitors` checks one file at a time, these
checkers receive a :class:`repro.lint.callgraph.Program` — every module
under lint at once — and answer cross-module questions:

* **R011 memo-coherence** — classes annotate their version-memoised
  caches with ``# repro: memo-guard version=<attr> fields=<f1>,<f2>``;
  every method mutating a guarded field must bump the version attr
  (directly or via a same-class method it calls).
* **R012 spec purity** — every callable wired into ``MetricSpec(...,
  compute=...)`` must be transitively free of unseeded RNG, wall-clock
  reads, and parameter mutation, by reachability rather than R001/R002's
  per-module scoping.

Like the per-file tier, resolution is syntactic and conservative
(dynamic-dispatch fallback edges over-approximate), and the same escape
hatches apply: ``# repro: noqa[R0xx]`` on the flagged line, or a
baseline entry with a justification.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass

from repro.lint.callgraph import (
    FunctionInfo,
    Hazard,
    Program,
    body_nodes,
)
from repro.lint.rules import RULES, Finding
from repro.lint.visitors import _CLOCK_ALLOWED, _MUTATING_METHODS

_MEMO_GUARD_RE = re.compile(
    r"#\s*repro:\s*memo-guard\s+"
    r"version=([A-Za-z_]\w*)\s+"
    r"fields=([A-Za-z_]\w*(?:\s*,\s*[A-Za-z_]\w*)*)"
)


def _clock_allowed(module: str) -> bool:
    return any(
        module == allowed or module.startswith(allowed + ".")
        for allowed in _CLOCK_ALLOWED
    )


def _short_chain(parents: dict[str, str | None], target: str) -> str:
    """``entry → … → target`` rendered with bare function names."""
    chain = Program.chain(parents, target)
    if len(chain) > 4:
        chain = [chain[0], "…", chain[-2], chain[-1]]
    return " → ".join(part.rsplit(".", 1)[-1] if part != "…" else part
                      for part in chain)


class ProgramChecker:
    """Base for whole-program checkers: finding plumbing over a Program."""

    rule_id = ""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.rule = RULES[self.rule_id]
        self.findings: list[Finding] = []

    def run(self) -> list[Finding]:
        self.check()
        self.findings.sort(key=Finding.sort_key)
        return self.findings

    def check(self) -> None:
        raise NotImplementedError

    def report(
        self, module: str, lineno: int, col: int, message: str
    ) -> None:
        info = self.program.modules.get(module)
        path = info.path if info is not None else module
        code = info.source_line(lineno).strip() if info is not None else ""
        self.findings.append(Finding(
            path=path, line=lineno, col=col,
            rule_id=self.rule.id, message=message, code=code,
        ))

    def report_hazard(
        self, fn: FunctionInfo, hazard: Hazard, message: str
    ) -> None:
        self.report(fn.module, hazard.lineno, hazard.col, message)


# -- R011: memo-coherence -----------------------------------------------------


@dataclass(frozen=True, slots=True)
class MemoGuard:
    """One parsed ``# repro: memo-guard`` declaration."""

    class_qname: str
    version: str
    fields: tuple[str, ...]
    lineno: int


def _self_attr(node: ast.AST) -> str | None:
    """The first attribute name hanging off ``self`` in a target chain
    (``self._providers[asn].x`` → ``_providers``)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        node = node.value
    return None


class MemoCoherenceChecker(ProgramChecker):
    """R011 — guarded fields are never mutated without a version bump.

    The guard grammar — a ``repro: memo-guard`` comment written
    anywhere inside the class body::

        repro: memo-guard version=_version fields=_providers,_customers

    declares that some memo (``p2c_edges``, the external adjacency
    cache) is keyed on ``self._version`` and reads the listed fields.
    Every method of the class that mutates a guarded field — attribute/
    subscript assignment, ``del``, or a mutating method call rooted at
    ``self.<field>`` — must also write ``self._version`` (directly, or
    by calling a same-class method that does). Guards naming attributes
    the class never assigns are themselves flagged: a stale guard is a
    hole in the invariant.
    """

    rule_id = "R011"

    def check(self) -> None:
        for guard in self._collect_guards():
            self._check_guard(guard)

    def _collect_guards(self) -> list[MemoGuard]:
        guards: list[MemoGuard] = []
        for module in sorted(self.program.modules):
            info = self.program.modules[module]
            for index, line in enumerate(info.lines, start=1):
                match = _MEMO_GUARD_RE.search(line)
                if match is None:
                    continue
                owner = self._enclosing_class(module, index)
                if owner is None:
                    self.report(
                        module, index, 1,
                        "memo-guard declared outside a class body — the "
                        "guard must sit inside the class whose fields "
                        "it protects",
                    )
                    continue
                guards.append(MemoGuard(
                    class_qname=owner,
                    version=match.group(1),
                    fields=tuple(
                        part.strip()
                        for part in match.group(2).split(",") if part.strip()
                    ),
                    lineno=index,
                ))
        return guards

    def _enclosing_class(self, module: str, lineno: int) -> str | None:
        best: str | None = None
        best_start = -1
        for qname, cls in self.program.classes.items():
            if cls.module != module:
                continue
            end = getattr(cls.node, "end_lineno", cls.node.lineno)
            if cls.node.lineno <= lineno <= end and (
                cls.node.lineno > best_start
            ):
                best, best_start = qname, cls.node.lineno
        return best

    def _check_guard(self, guard: MemoGuard) -> None:
        cls = self.program.classes[guard.class_qname]
        assigned = self._assigned_attrs(cls.node)
        for attr in (guard.version, *guard.fields):
            if attr not in assigned:
                self.report(
                    cls.module, guard.lineno, 1,
                    f"memo-guard names {attr!r} but "
                    f"{cls.name} never assigns it — fix the guard or "
                    "the class",
                )
        bumpers = self._version_bumpers(cls, guard.version)
        for method_name in sorted(cls.methods):
            qname = cls.methods[method_name]
            fn = self.program.functions[qname]
            if method_name in bumpers:
                continue
            for node, attr, verb in self._field_mutations(
                fn, frozenset(guard.fields)
            ):
                self.report(
                    cls.module,
                    getattr(node, "lineno", fn.node.lineno),
                    getattr(node, "col_offset", 0) + 1,
                    f"{cls.name}.{method_name} {verb} guarded field "
                    f"{attr!r} without bumping {guard.version!r} — the "
                    "memo keyed on it will serve stale results",
                )

    def _assigned_attrs(self, node: ast.ClassDef) -> set[str]:
        attrs: set[str] = set()
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        attrs.add(target.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                attrs.add(stmt.target.id)
        # __slots__ string literals double as declarations
        for child in ast.walk(node):
            if isinstance(child, (ast.Assign, ast.AugAssign)):
                targets = (
                    child.targets if isinstance(child, ast.Assign)
                    else [child.target]
                )
                for target in targets:
                    attr = _self_attr(target)
                    if attr is not None:
                        attrs.add(attr)
            elif isinstance(child, ast.Constant) and isinstance(
                child.value, str
            ):
                attrs.add(child.value)
        return attrs

    def _version_bumpers(self, cls, version: str) -> set[str]:
        """Method names that write ``self.<version>``, directly or via
        a same-class method they call (fixpoint)."""
        direct: set[str] = set()
        calls: dict[str, set[str]] = {}
        for method_name, qname in cls.methods.items():
            fn = self.program.functions[qname]
            called: set[str] = set()
            for node in body_nodes(fn.node):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                            and target.attr == version
                        ):
                            direct.add(method_name)
                elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ):
                    owner = node.func.value
                    if isinstance(owner, ast.Name) and owner.id == "self":
                        called.add(node.func.attr)
            calls[method_name] = called
        bumpers = set(direct)
        changed = True
        while changed:
            changed = False
            for method_name, called in calls.items():
                if method_name not in bumpers and called & bumpers:
                    bumpers.add(method_name)
                    changed = True
        return bumpers

    def _field_mutations(self, fn: FunctionInfo, fields: frozenset[str]):
        for node in body_nodes(fn.node):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    attr = _self_attr(target)
                    if attr in fields:
                        yield node, attr, "writes"
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    attr = _self_attr(target)
                    if attr in fields:
                        yield node, attr, "deletes from"
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in _MUTATING_METHODS:
                    attr = _self_attr(node.func.value)
                    if attr in fields:
                        yield node, attr, f"calls .{node.func.attr}() on"


# -- R012: spec purity --------------------------------------------------------


class SpecPurityChecker(ProgramChecker):
    """R012 — registry compute callables are transitively pure.

    Entry points are every callable wired as ``MetricSpec(...,
    compute=<name>)`` anywhere in the program (the registry's
    module-level ``register(MetricSpec(...))`` calls). From their union
    reachable set — dynamic fallback edges included — three hazard
    kinds are flagged: unseeded RNG (R001's detector, but regardless of
    module), wall-clock reads outside the obs allowlist, and mutation
    of a non-self parameter (a compute that edits its ctx poisons every
    cached product built from it).
    """

    rule_id = "R012"

    def check(self) -> None:
        entries = self._compute_entries()
        if not entries:
            return
        parents = self.program.reachable(sorted(entries))
        reported: set[tuple[str, int, int, str]] = set()
        for qname in sorted(parents):
            fn = self.program.functions[qname]
            facts = self.program.facts(qname)
            chain = _short_chain(parents, qname)
            for hazard in facts.rng:
                self._report_once(
                    reported, fn, hazard,
                    f"unseeded RNG on a MetricSpec.compute path "
                    f"({chain}): {hazard.detail}",
                )
            for hazard in facts.clocks:
                if _clock_allowed(fn.module):
                    continue
                self._report_once(
                    reported, fn, hazard,
                    f"wall-clock read on a MetricSpec.compute path "
                    f"({chain}): {hazard.detail}",
                )
            for hazard in facts.param_mutations:
                self._report_once(
                    reported, fn, hazard,
                    f"parameter mutation on a MetricSpec.compute path "
                    f"({chain}): {hazard.detail} — computes must be "
                    "pure functions of (spec, ctx)",
                )

    def _report_once(
        self,
        reported: set[tuple[str, int, int, str]],
        fn: FunctionInfo,
        hazard: Hazard,
        message: str,
    ) -> None:
        key = (fn.module, hazard.lineno, hazard.col, hazard.kind)
        if key in reported:
            return
        reported.add(key)
        self.report_hazard(fn, hazard, message)

    def _compute_entries(self) -> set[str]:
        entries: set[str] = set()
        for module in sorted(self.program.modules):
            info = self.program.modules[module]
            for node in ast.walk(info.tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (
                    func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None
                )
                if name != "MetricSpec":
                    continue
                for keyword in node.keywords:
                    if keyword.arg != "compute":
                        continue
                    value = keyword.value
                    resolved: str | None = None
                    if isinstance(value, ast.Name):
                        resolved = self.program.resolve_name(
                            module, value.id
                        )
                    elif isinstance(value, ast.Attribute) and isinstance(
                        value.value, ast.Name
                    ):
                        aliases, _ = self.program.imports.get(
                            module, ({}, {})
                        )
                        target = aliases.get(value.value.id)
                        if target is not None:
                            resolved = f"{target}.{value.attr}"
                    if resolved is not None and (
                        resolved in self.program.functions
                    ):
                        entries.add(resolved)
        return entries


#: every whole-program checker, in rule-id order
PROGRAM_CHECKERS: tuple[type[ProgramChecker], ...] = (
    MemoCoherenceChecker,
    SpecPurityChecker,
)
