"""Whole-program symbol table, conservative call graph, reachability.

The per-file rules (R001–R008) see one module at a time. The
whole-program tier (rules R011–R012 in :mod:`repro.lint.wprules`) asks
questions no single AST can answer — *can this metric compute callable
reach an RNG, through calls into other modules?*, *does this method
bump the version its class's memo is keyed on, directly or through a
helper?* — so it needs a program-wide view:

* a **symbol table** over every module handed to :class:`Program` —
  functions, methods (with their classes and bases), module-level
  names, and import aliases;
* a **conservative call graph**: one node per function/method, edges
  resolved syntactically. Direct calls, from-imports, module-alias
  attributes, ``self.method()`` through the class and its bases, and
  locally-instantiated / parameter-annotated receivers resolve to a
  single callee; anything else falls back to a *dynamic* edge to every
  known function sharing the terminal name (over-approximation never
  loses a real edge, it only adds candidates);
* **reachability** queries with parent tracking, so a finding can name
  the call chain that makes it a hazard.

Everything is deterministic: modules are processed in sorted module-
name order regardless of input order, per-function edges follow AST
order, and BFS expands a sorted frontier — so reachability answers (and
therefore findings) are byte-identical across file orderings.

Resolution is heuristic by design, like the per-file checkers: no type
inference, no evaluation. The escape hatches (``# repro: noqa`` and the
baseline) absorb residual false positives.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.lint.visitors import (
    _MUTATING_METHODS,
    UnseededRngChecker,
    WallClockChecker,
    FileContext,
    root_name,
)


@dataclass(slots=True)
class ModuleInfo:
    """One parsed module participating in the program."""

    module: str
    path: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


@dataclass(slots=True)
class FunctionInfo:
    """One function or method in the symbol table."""

    qname: str
    module: str
    name: str
    cls: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef

    @property
    def is_method(self) -> bool:
        return self.cls is not None


@dataclass(slots=True)
class ClassInfo:
    """One class: its methods and (syntactic) base-class names."""

    qname: str
    module: str
    name: str
    node: ast.ClassDef
    #: base-class identifiers as written (terminal names)
    bases: tuple[str, ...]
    #: method name -> function qname
    methods: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class CallEdge:
    """One resolved call: caller → callee, with how it was resolved."""

    callee: str
    #: ``direct`` (name/import/self/typed receiver), ``dynamic``
    #: (unknown receiver, matched by terminal name), or ``decorator``
    kind: str
    lineno: int


@dataclass(frozen=True, slots=True)
class Hazard:
    """One per-function fact a whole-program rule cares about."""

    kind: str  # ``rng`` / ``clock`` / ``param-mutation``
    lineno: int
    col: int
    detail: str


@dataclass(slots=True)
class FunctionFacts:
    """Everything extracted from one function body in a single pass."""

    rng: list[Hazard] = field(default_factory=list)
    clocks: list[Hazard] = field(default_factory=list)
    param_mutations: list[Hazard] = field(default_factory=list)


def body_nodes(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.AST]:
    """Every node in a function body, excluding nested def/class
    subtrees (those are separate symbol-table entries)."""
    stack: list[ast.AST] = []
    for stmt in func.body:
        stack.append(stmt)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            # still visit decorators/defaults — they run in this scope
            for deco in getattr(node, "decorator_list", []):
                stack.append(deco)
            continue
        for child in ast.iter_child_nodes(node):
            stack.append(child)


def _annotation_idents(node: ast.AST | None) -> set[str]:
    """Every identifier in an annotation, re-parsing string fragments."""
    names: set[str] = set()
    if node is None:
        return names
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, ast.Constant) and isinstance(current.value, str):
            try:
                stack.append(ast.parse(current.value, mode="eval").body)
            except SyntaxError:
                pass
            continue
        for child in ast.walk(current):
            if isinstance(child, ast.Name):
                names.add(child.id)
            elif isinstance(child, ast.Attribute):
                names.add(child.attr)
            elif isinstance(child, ast.Constant) and isinstance(
                child.value, str
            ) and child is not current:
                stack.append(child)
    return names


class Program:
    """The whole-program view: symbol table + call graph + facts.

    Construction walks every module once; call edges and per-function
    facts are derived lazily and memoised, so a lint run only pays for
    the functions its active rules actually reach.
    """

    def __init__(self, modules: Iterable[ModuleInfo]) -> None:
        #: module name -> info, in sorted module order (determinism
        #: across input file orderings)
        self.modules: dict[str, ModuleInfo] = {
            info.module: info
            for info in sorted(modules, key=lambda m: m.module)
        }
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: module -> (alias -> module), (alias -> (module, original))
        self.imports: dict[
            str, tuple[dict[str, str], dict[str, tuple[str, str]]]
        ] = {}
        #: terminal name -> sorted qnames (the dynamic-dispatch fallback)
        self.by_name: dict[str, tuple[str, ...]] = {}
        self._edges: dict[str, tuple[CallEdge, ...]] = {}
        self._facts: dict[str, FunctionFacts] = {}
        for info in self.modules.values():
            self._index_module(info)
        names: dict[str, list[str]] = {}
        for qname, fn in self.functions.items():
            names.setdefault(fn.name, []).append(qname)
        self.by_name = {
            name: tuple(sorted(qnames)) for name, qnames in names.items()
        }

    # -- symbol table ---------------------------------------------------------

    def _index_module(self, info: ModuleInfo) -> None:
        module_aliases: dict[str, str] = {}
        from_aliases: dict[str, tuple[str, str]] = {}
        for stmt in info.tree.body:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    module_aliases[alias.asname or alias.name] = alias.name
            elif isinstance(stmt, ast.ImportFrom) and stmt.module:
                for alias in stmt.names:
                    from_aliases[alias.asname or alias.name] = (
                        stmt.module, alias.name,
                    )
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(info, stmt, cls=None)
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(info, stmt)
        self.imports[info.module] = (module_aliases, from_aliases)

    def _index_class(self, info: ModuleInfo, node: ast.ClassDef) -> None:
        qname = f"{info.module}.{node.name}"
        bases = tuple(
            name for name in (
                base.id if isinstance(base, ast.Name)
                else base.attr if isinstance(base, ast.Attribute) else None
                for base in node.bases
            ) if name is not None
        )
        cls = ClassInfo(
            qname=qname, module=info.module, name=node.name,
            node=node, bases=bases,
        )
        self.classes[qname] = cls
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self._index_function(info, stmt, cls=node.name)
                cls.methods[stmt.name] = fn.qname

    def _index_function(
        self,
        info: ModuleInfo,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        cls: str | None,
    ) -> FunctionInfo:
        owner = f"{info.module}.{cls}" if cls is not None else info.module
        qname = f"{owner}.{node.name}"
        fn = FunctionInfo(
            qname=qname, module=info.module, name=node.name, cls=cls, node=node,
        )
        self.functions[qname] = fn
        # nested defs are their own nodes (dynamic edges reach them)
        for stmt in ast.walk(node):
            if stmt is node:
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested_q = f"{qname}.<locals>.{stmt.name}"
                if nested_q not in self.functions:
                    self.functions[nested_q] = FunctionInfo(
                        qname=nested_q, module=info.module, name=stmt.name,
                        cls=None, node=stmt,
                    )
        return fn

    # -- name resolution ------------------------------------------------------

    def resolve_name(
        self,
        module: str,
        name: str,
        extra_from: dict[str, tuple[str, str]] | None = None,
    ) -> str | None:
        """A bare name in ``module`` → the function/class qname it
        denotes, through module-level defs and from-imports.

        ``extra_from`` supplies function-local from-imports (lazy
        imports inside function bodies, common across ``repro.*``).
        """
        candidate = f"{module}.{name}"
        if candidate in self.functions or candidate in self.classes:
            return candidate
        _, from_aliases = self.imports.get(module, ({}, {}))
        origin = from_aliases.get(name)
        if origin is None and extra_from is not None:
            origin = extra_from.get(name)
        if origin is not None:
            return f"{origin[0]}.{origin[1]}"  # may be external; qualified
        return None

    def resolve_method(self, class_qname: str, method: str) -> str | None:
        """``method`` looked up on a class and (recursively) its bases."""
        seen: set[str] = set()
        stack = [class_qname]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            if method in cls.methods:
                return cls.methods[method]
            for base in cls.bases:
                resolved = self.resolve_name(cls.module, base)
                if resolved is not None:
                    stack.append(resolved)
        return None

    # -- call edges -----------------------------------------------------------

    def edges_of(self, qname: str) -> tuple[CallEdge, ...]:
        """The (memoised) outgoing call edges of one function."""
        cached = self._edges.get(qname)
        if cached is not None:
            return cached
        fn = self.functions.get(qname)
        edges: list[CallEdge] = []
        if fn is not None:
            local_mod, local_from = self._function_imports(fn)
            receiver_types = self._receiver_types(fn, local_from)
            for node in body_nodes(fn.node):
                if isinstance(node, ast.Call):
                    edges.extend(self._resolve_call(
                        fn, node, receiver_types, local_mod, local_from,
                    ))
            for deco in fn.node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                resolved = self._resolve_callable_expr(fn, target, local_from)
                if resolved is not None and resolved in self.functions:
                    edges.append(
                        CallEdge(resolved, "decorator", fn.node.lineno)
                    )
        result = tuple(edges)
        self._edges[qname] = result
        return result

    def _function_imports(
        self, fn: FunctionInfo
    ) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
        """Function-local import aliases (lazy imports)."""
        local_mod: dict[str, str] = {}
        local_from: dict[str, tuple[str, str]] = {}
        for node in body_nodes(fn.node):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local_mod[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    local_from[alias.asname or alias.name] = (
                        node.module, alias.name,
                    )
        return local_mod, local_from

    def _receiver_types(
        self,
        fn: FunctionInfo,
        local_from: dict[str, tuple[str, str]] | None = None,
    ) -> dict[str, str]:
        """Local name → class qname, from parameter annotations and
        single-class local instantiations (``index = PathIndex(store)``)."""
        types: dict[str, str] = {}
        args = fn.node.args
        for arg in (
            *args.posonlyargs, *args.args, *args.kwonlyargs,
        ):
            for ident in _annotation_idents(arg.annotation):
                resolved = self.resolve_name(fn.module, ident, local_from)
                if resolved is not None and resolved in self.classes:
                    types[arg.arg] = resolved
                    break
        for node in body_nodes(fn.node):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                callee = node.value.func
                if isinstance(callee, ast.Name):
                    resolved = self.resolve_name(
                        fn.module, callee.id, local_from
                    )
                    if resolved is not None and resolved in self.classes:
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                types[target.id] = resolved
        return types

    def _resolve_callable_expr(
        self,
        fn: FunctionInfo,
        expr: ast.AST,
        local_from: dict[str, tuple[str, str]] | None = None,
    ) -> str | None:
        """A callee expression → qname, for Name/module-alias shapes."""
        if isinstance(expr, ast.Name):
            return self.resolve_name(fn.module, expr.id, local_from)
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            module_aliases, _ = self.imports.get(fn.module, ({}, {}))
            target_module = module_aliases.get(expr.value.id)
            if target_module is not None:
                return f"{target_module}.{expr.attr}"
        return None

    def _resolve_call(
        self,
        fn: FunctionInfo,
        node: ast.Call,
        receiver_types: dict[str, str],
        local_mod: dict[str, str] | None = None,
        local_from: dict[str, tuple[str, str]] | None = None,
    ) -> list[CallEdge]:
        func = node.func
        lineno = getattr(node, "lineno", fn.node.lineno)
        # bare name: local def, from-import, or class instantiation
        if isinstance(func, ast.Name):
            resolved = self.resolve_name(fn.module, func.id, local_from)
            if resolved is None:
                return []
            if resolved in self.classes:
                init = self.resolve_method(resolved, "__init__")
                return [CallEdge(init, "direct", lineno)] if init else []
            if resolved in self.functions:
                return [CallEdge(resolved, "direct", lineno)]
            return []
        if not isinstance(func, ast.Attribute):
            return []
        owner = func.value
        # module alias: ``m.func(...)`` via ``import m``
        if isinstance(owner, ast.Name):
            module_aliases, _ = self.imports.get(fn.module, ({}, {}))
            target_module = module_aliases.get(owner.id)
            if target_module is None and local_mod is not None:
                target_module = local_mod.get(owner.id)
            if target_module is not None:
                candidate = f"{target_module}.{func.attr}"
                if candidate in self.functions:
                    return [CallEdge(candidate, "direct", lineno)]
                if candidate in self.classes:
                    init = self.resolve_method(candidate, "__init__")
                    return [CallEdge(init, "direct", lineno)] if init else []
                return []
            # ``self.method()`` through the class and its bases
            if owner.id == "self" and fn.cls is not None:
                resolved = self.resolve_method(
                    f"{fn.module}.{fn.cls}", func.attr
                )
                if resolved is not None:
                    return [CallEdge(resolved, "direct", lineno)]
                return self._dynamic_edges(func.attr, lineno)
            # typed receiver (annotated parameter / local instantiation)
            cls_qname = receiver_types.get(owner.id)
            if cls_qname is not None:
                resolved = self.resolve_method(cls_qname, func.attr)
                if resolved is not None:
                    return [CallEdge(resolved, "direct", lineno)]
                return self._dynamic_edges(func.attr, lineno)
        # unknown receiver: conservative dynamic-dispatch fallback
        return self._dynamic_edges(func.attr, lineno)

    def _dynamic_edges(self, name: str, lineno: int) -> list[CallEdge]:
        return [
            CallEdge(qname, "dynamic", lineno)
            for qname in self.by_name.get(name, ())
        ]

    # -- reachability ---------------------------------------------------------

    def reachable(
        self,
        entries: Iterable[str],
        include_dynamic: bool = True,
    ) -> dict[str, str | None]:
        """Every function reachable from ``entries``, as a
        ``{qname: parent qname}`` map (entries map to ``None``).

        BFS over sorted entries with per-function AST-ordered edges:
        the parent map — and therefore any chain built from it — is
        deterministic for a given program, regardless of the order the
        program's files were supplied in.
        """
        parents: dict[str, str | None] = {}
        queue: deque[str] = deque()
        for entry in sorted(set(entries)):
            if entry in self.functions and entry not in parents:
                parents[entry] = None
                queue.append(entry)
        while queue:
            current = queue.popleft()
            for edge in self.edges_of(current):
                if not include_dynamic and edge.kind == "dynamic":
                    continue
                if edge.callee in parents or edge.callee not in self.functions:
                    continue
                parents[edge.callee] = current
                queue.append(edge.callee)
        return parents

    @staticmethod
    def chain(parents: dict[str, str | None], target: str) -> list[str]:
        """The entry → … → target call chain from a reachability map."""
        chain: list[str] = []
        cursor: str | None = target
        while cursor is not None:
            chain.append(cursor)
            cursor = parents.get(cursor)
        chain.reverse()
        return chain

    def reaches(
        self,
        entries: Iterable[str],
        predicate: Callable[[FunctionInfo], bool],
        include_dynamic: bool = True,
    ) -> bool:
        """Whether any function satisfying ``predicate`` is reachable."""
        parents = self.reachable(entries, include_dynamic)
        return any(
            predicate(self.functions[qname]) for qname in parents
        )

    # -- per-function facts ---------------------------------------------------

    def facts(self, qname: str) -> FunctionFacts:
        """The (memoised) hazard facts for one function."""
        cached = self._facts.get(qname)
        if cached is not None:
            return cached
        fn = self.functions.get(qname)
        facts = FunctionFacts()
        if fn is not None:
            self._extract_facts(fn, facts)
        self._facts[qname] = facts
        return facts

    def _extract_facts(self, fn: FunctionInfo, facts: FunctionFacts) -> None:
        info = self.modules[fn.module]
        params = {
            arg.arg
            for arg in (
                *fn.node.args.posonlyargs, *fn.node.args.args,
                *fn.node.args.kwonlyargs,
            )
        } - {"self", "cls"}

        def hazard(node: ast.AST, kind: str, detail: str) -> Hazard:
            return Hazard(
                kind=kind,
                lineno=getattr(node, "lineno", fn.node.lineno),
                col=getattr(node, "col_offset", 0) + 1,
                detail=detail,
            )

        def record_write(node: ast.AST, target: ast.AST, verb: str) -> None:
            # rebinding a bare parameter name is a local rebind; writing
            # through one (attribute or subscript) mutates the caller's
            if not isinstance(target, (ast.Attribute, ast.Subscript)):
                return
            name = root_name(target)
            if name is not None and name in params:
                facts.param_mutations.append(
                    hazard(node, "param-mutation",
                           f"{verb} parameter {name!r}")
                )

        for node in body_nodes(fn.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    record_write(node, target, "assigns into")
            elif isinstance(node, ast.AugAssign):
                record_write(node, node.target, "assigns into")
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    record_write(node, target, "deletes from")
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATING_METHODS
                ):
                    name = root_name(func.value)
                    if name is not None and name in params:
                        facts.param_mutations.append(
                            hazard(node, "param-mutation",
                                   f"calls .{func.attr}() on "
                                   f"parameter {name!r}")
                        )

        # RNG / clock facts reuse the per-file checkers, pre-seeded with
        # the module's import aliases so a function body resolves the
        # same way it would in a full-module pass.
        ctx = FileContext(path=info.path, module=fn.module, lines=info.lines)
        module_aliases, from_aliases = self.imports.get(fn.module, ({}, {}))
        for checker_cls, sink, kind in (
            (UnseededRngChecker, facts.rng, "rng"),
            (WallClockChecker, facts.clocks, "clock"),
        ):
            checker = checker_cls(ctx)
            checker.module_aliases.update(module_aliases)
            checker.from_aliases.update(from_aliases)
            checker.visit(fn.node)
            for finding in checker.findings:
                sink.append(Hazard(
                    kind=kind, lineno=finding.line, col=finding.col,
                    detail=finding.message,
                ))
