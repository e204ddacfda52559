"""Per-rule AST checkers.

Each rule is a :class:`BaseChecker` subclass bound to one
:class:`repro.lint.rules.Rule`. A checker reads the node types it
names in ``enter_<Type>`` and ``leave_<Type>`` methods; the engine's
single pre-order walk (:func:`repro.lint.engine.walk`) calls every
active checker's ``enter_`` hooks for a node before its children and
the ``leave_`` hooks after them, so one pass over the file serves every
rule. Checkers are deliberately heuristic — they resolve names
syntactically, not through type inference — and every checker
documents the shape it recognises. The inline escape hatch
(``# repro: noqa[...]``) absorbs the residual false positives; the fixture corpus under ``tests/lint/fixtures/`` pins down
exactly what fires and what stays quiet.

Checkers share one :class:`FileContext` per file: path, dotted module
name, source lines — so module-scoped rules (R002 exempts
``repro.obs``, R007 applies only inside ``repro.perf``) can tell where
they are — and the import aliases the walk has passed so far.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import ClassVar

from repro.lint.rules import RULES, Finding, Rule


@dataclass(slots=True)
class FileContext:
    """Everything a checker needs to know about the file under lint."""

    path: str
    module: str
    lines: list[str] = field(default_factory=list)
    #: alias → imported module (``import numpy as np`` → np: numpy)
    module_aliases: dict[str, str] = field(default_factory=dict)
    #: alias → (module, original name) from ``from m import n as a``
    from_aliases: dict[str, tuple[str, str]] = field(default_factory=dict)

    def record_import(self, node: ast.Import | ast.ImportFrom) -> None:
        """Note an import's aliases (the walk calls this on entering
        each import, so a checker sees the imports that precede the
        node it is reading)."""
        if isinstance(node, ast.Import):
            for alias in node.names:
                self.module_aliases[alias.asname or alias.name] = alias.name
        elif node.module:
            for alias in node.names:
                self.from_aliases[alias.asname or alias.name] = (
                    node.module, alias.name,
                )

    def is_module_alias(self, name: str, module: str) -> bool:
        """Whether ``name`` is bound to ``module`` by an import."""
        return self.module_aliases.get(name) == module

    def from_import_origin(self, name: str) -> tuple[str, str] | None:
        return self.from_aliases.get(name)

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def finding(self, rule: Rule, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            path=self.path,
            line=line,
            col=col + 1,
            rule_id=rule.id,
            message=message,
            code=self.source_line(line).strip(),
        )


# -- shared syntactic helpers -------------------------------------------------


def call_func_name(node: ast.Call) -> str | None:
    """The terminal identifier of a call's callee (``a.b.c()`` → ``c``)."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def root_name(node: ast.AST) -> str | None:
    """The base ``Name`` of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def annotation_names(node: ast.AST | None) -> set[str]:
    """Every bare identifier appearing in an annotation expression
    (handles ``X``, ``X | None``, ``Optional[X]``, ``"X"`` strings)."""
    names: set[str] = set()
    if node is None:
        return names
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # a stringified annotation: re-parse it as an expression
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return names
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


def _hooks(cls: type, prefix: str) -> dict[type[ast.AST], str]:
    """Node type → method name for a checker's ``enter_`` or
    ``leave_`` methods."""
    return {
        getattr(ast, name[len(prefix):]): name
        for name in dir(cls) if name.startswith(prefix)
    }


class BaseChecker:
    """Common machinery: finding collection and hook registration."""

    rule_id = ""
    #: node type → name of the method called on entering / leaving a
    #: node of that type, collected from the subclass's method names
    entry_hooks: ClassVar[dict[type[ast.AST], str]] = {}
    exit_hooks: ClassVar[dict[type[ast.AST], str]] = {}

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls.entry_hooks = _hooks(cls, "enter_")
        cls.exit_hooks = _hooks(cls, "leave_")

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.rule = RULES[self.rule_id]
        self.findings: list[Finding] = []

    @classmethod
    def applies_to(cls, module: str) -> bool:
        """Whether the rule runs at all for the given dotted module."""
        return True

    def report(self, node: ast.AST, message: str) -> None:
        self.findings.append(self.ctx.finding(self.rule, node, message))


# -- R001: unseeded RNG -------------------------------------------------------

#: stdlib ``random`` module-level functions that consume the global RNG
_GLOBAL_RNG_FNS = frozenset((
    "random", "seed", "uniform", "randint", "randrange", "choice",
    "choices", "shuffle", "sample", "getrandbits", "gauss", "betavariate",
    "expovariate", "triangular", "normalvariate", "lognormvariate",
    "vonmisesvariate", "paretovariate", "weibullvariate", "randbytes",
))


class UnseededRngChecker(BaseChecker):
    """R001 — every RNG must be constructed from an explicit seed.

    Flags: ``random.Random()`` with no arguments, ``random.<fn>(...)``
    module-level calls (the shared global RNG), ``random.SystemRandom``
    anywhere, and ``numpy.random`` global calls (``np.random.seed`` /
    ``np.random.rand`` / zero-argument ``default_rng()``).
    Quiet on: ``random.Random(seed)``, methods of an ``rng`` instance,
    ``np.random.default_rng(seed)``.
    """

    rule_id = "R001"

    def enter_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if self.ctx.is_module_alias(func.value.id, "random"):
                self._check_stdlib(node, func.attr)
        if isinstance(func, ast.Attribute):
            self._check_numpy(node, func)
        if isinstance(func, ast.Name):
            origin = self.ctx.from_import_origin(func.id)
            if origin == ("random", "Random") and not _has_args(node):
                self.report(
                    node,
                    "Random() constructed without a seed — pass an "
                    "explicit seed so runs are reproducible",
                )
            elif origin is not None and origin[0] == "random" and (
                origin[1] in _GLOBAL_RNG_FNS
            ):
                self.report(
                    node,
                    f"module-level random.{origin[1]}() draws from the "
                    "shared global RNG — use a seeded random.Random "
                    "instance instead",
                )
            elif origin == ("random", "SystemRandom"):
                self.report(
                    node,
                    "SystemRandom is OS-entropy backed and cannot be "
                    "seeded — use random.Random(seed)",
                )

    def _check_stdlib(self, node: ast.Call, attr: str) -> None:
        if attr == "Random" and not _has_args(node):
            self.report(
                node,
                "random.Random() constructed without a seed — pass an "
                "explicit seed so runs are reproducible",
            )
        elif attr == "SystemRandom":
            self.report(
                node,
                "random.SystemRandom is OS-entropy backed and cannot "
                "be seeded — use random.Random(seed)",
            )
        elif attr in _GLOBAL_RNG_FNS:
            self.report(
                node,
                f"module-level random.{attr}() draws from the shared "
                "global RNG — use a seeded random.Random instance",
            )

    def _check_numpy(self, node: ast.Call, func: ast.Attribute) -> None:
        # <np>.random.<fn>(...) where <np> aliases numpy
        value = func.value
        if not (
            isinstance(value, ast.Attribute)
            and value.attr == "random"
            and isinstance(value.value, ast.Name)
            and self.ctx.is_module_alias(value.value.id, "numpy")
        ):
            return
        if func.attr in ("default_rng", "RandomState", "Generator"):
            if not _has_args(node):
                self.report(
                    node,
                    f"numpy.random.{func.attr}() constructed without a "
                    "seed — pass an explicit seed",
                )
        else:
            self.report(
                node,
                f"numpy.random.{func.attr}() uses numpy's global RNG — "
                "use numpy.random.default_rng(seed)",
            )


def _has_args(node: ast.Call) -> bool:
    return bool(node.args) or bool(node.keywords)


# -- R002: wall-clock reads ---------------------------------------------------

_CLOCK_FNS = frozenset((
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "localtime",
    "gmtime", "ctime",
))
_DATETIME_CLASS_FNS = frozenset(("now", "utcnow", "today", "fromtimestamp"))


#: Modules allowed to read clocks: the observability layer alone; every
#: timing elsewhere is a span of its tracer.
_CLOCK_ALLOWED = ("repro.obs",)


class WallClockChecker(BaseChecker):
    """R002 — only ``repro.obs`` may read clocks.

    Pipeline stages must not branch on, store, or emit wall-clock time:
    metric values are deterministic for a fixed seed, and only span
    timings (owned by the observability layer) carry clock noise.
    Flags ``time.time`` / ``time.perf_counter`` / … and
    ``datetime.now`` / ``date.today`` / … reads elsewhere.
    """

    rule_id = "R002"

    @classmethod
    def applies_to(cls, module: str) -> bool:
        return not any(
            module == allowed or module.startswith(allowed + ".")
            for allowed in _CLOCK_ALLOWED
        )

    def enter_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            owner = func.value
            if (
                isinstance(owner, ast.Name)
                and self.ctx.is_module_alias(owner.id, "time")
                and func.attr in _CLOCK_FNS
            ):
                self.report(
                    node,
                    f"time.{func.attr}() read outside repro.obs — route "
                    "timing through the observability layer (Tracer "
                    "spans)",
                )
            elif func.attr in _DATETIME_CLASS_FNS and self._is_datetime(owner):
                self.report(
                    node,
                    f"datetime {func.attr}() read outside repro.obs — "
                    "wall-clock values make output runs diverge",
                )
        elif isinstance(func, ast.Name):
            origin = self.ctx.from_import_origin(func.id)
            if origin is not None and origin[0] == "time" and (
                origin[1] in _CLOCK_FNS
            ):
                self.report(
                    node,
                    f"time.{origin[1]}() read outside repro.obs — route "
                    "timing through the observability layer",
                )

    def _is_datetime(self, owner: ast.AST) -> bool:
        # ``datetime.now()`` via ``from datetime import datetime/date``
        if isinstance(owner, ast.Name):
            origin = self.ctx.from_import_origin(owner.id)
            return origin is not None and origin[0] == "datetime" and (
                origin[1] in ("datetime", "date")
            )
        # ``datetime.datetime.now()`` via ``import datetime``
        if isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name):
            return (
                self.ctx.is_module_alias(owner.value.id, "datetime")
                and owner.attr in ("datetime", "date")
            )
        return False


# -- R003: unordered iteration ------------------------------------------------

#: callables whose result does not depend on argument iteration order
_ORDER_INSENSITIVE = frozenset((
    "sorted", "sum", "min", "max", "len", "any", "all", "set",
    "frozenset", "Counter", "dict",
))
#: set methods that return another set
_SET_PRODUCING_METHODS = frozenset((
    "union", "intersection", "difference", "symmetric_difference", "copy",
))
_SET_ANNOTATIONS = frozenset((
    "set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet",
))
#: loop-body calls that build ordered output
_ORDERED_BUILDERS = frozenset(("append", "extend", "insert"))

#: one plain-name binding in a scope: (name, value, annotation)
_Binding = tuple[str, ast.expr | None, ast.expr | None]


class UnorderedIterationChecker(BaseChecker):
    """R003 — ordered output must not be built from raw set iteration.

    Set iteration order depends on hash values (randomized per process
    for strings), so feeding it into a list, tuple, or yield sequence
    breaks the byte-identical-output guarantee across processes. The
    checker resolves set-typed expressions syntactically per scope —
    set literals/comprehensions, ``set()``/``frozenset()`` calls,
    set-returning methods, names consistently assigned those, and
    parameters annotated ``set[...]``/``frozenset[...]`` — then flags:

    * ``for x in <set>:`` loops whose body appends/extends/inserts or
      yields (ordered accumulation from unordered iteration) — unless
      the accumulated list is normalized afterwards by ``lst.sort()``
      or ``lst = sorted(...)`` in the same scope;
    * returned/yielded list- or generator-comprehensions iterating a
      set, and ``list(<set>)`` / ``tuple(<set>)`` in return position —
      unless wrapped in an order-insensitive consumer (``sorted``,
      ``sum``, ``min``/``max``, ``len``, ``any``/``all``, ``set``, …).

    Dicts *built from sets* are hash-ordered too — insertion order is
    the set's iteration order — so the same hazards apply one hop
    later. Names assigned ``{k: f(k) for k in <set>}``,
    ``dict.fromkeys(<set>)``, or ``dict(genexp-over-<set>)`` are
    tracked as hash-ordered dicts, and iterating them (bare, or via
    ``.keys()`` / ``.values()`` / ``.items()``) into ordered output is
    flagged exactly like raw set iteration.

    Set and dict comprehensions are quiet as *outputs*: their content
    is order-independent (serialization layers sort keys separately).
    """

    rule_id = "R003"

    def enter_Module(self, node: ast.Module) -> None:
        self._analyze_scope(node.body, params=None)

    def enter_FunctionDef(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        self._analyze_scope(node.body, params=node.args)

    enter_AsyncFunctionDef = enter_FunctionDef

    # -- set-typed name resolution -------------------------------------------

    def _scope_set_names(
        self,
        assigned: list[_Binding],
        loop_bound: set[str],
        params: ast.arguments | None,
    ) -> set[str]:
        """Names that are set-typed for the whole scope: annotated set
        parameters, plus names only ever assigned set expressions."""
        set_votes: set[str] = set()
        # loop targets rebind names arbitrarily: never set-typed
        poisoned = set(loop_bound)
        if params is not None:
            for arg in _all_args(params):
                if annotation_names(arg.annotation) & _SET_ANNOTATIONS:
                    set_votes.add(arg.arg)
        assigns: list[tuple[str, ast.expr]] = []
        for name, value, annotation in assigned:
            if annotation is not None and (
                annotation_names(annotation) & _SET_ANNOTATIONS
            ):
                set_votes.add(name)
            elif value is not None:
                assigns.append((name, value))
        # two passes so ``a = set(...); b = a`` resolves
        for _ in range(2):
            for name, value in assigns:
                if self._is_set_expr(value, set_votes):
                    set_votes.add(name)
                else:
                    poisoned.add(name)
        return set_votes - poisoned

    def _is_set_expr(self, node: ast.expr, set_names: set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_PRODUCING_METHODS
                and self._is_set_expr(func.value, set_names)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left, set_names) or self._is_set_expr(
                node.right, set_names
            )
        return False

    # -- hash-ordered dicts (dicts whose insertion order came from a set) ----

    def _scope_hash_dict_names(
        self,
        assigned: list[_Binding],
        loop_bound: set[str],
        set_names: set[str],
    ) -> set[str]:
        """Names only ever assigned dicts built from set iteration —
        their insertion order IS the set's hash order."""
        votes: set[str] = set()
        poisoned = set(loop_bound)
        for name, value, _ in assigned:
            if value is None:
                continue
            if self._is_hash_dict_expr(value, set_names):
                votes.add(name)
            else:
                poisoned.add(name)
        return votes - poisoned

    def _is_hash_dict_expr(
        self, node: ast.expr, set_names: set[str]
    ) -> bool:
        if isinstance(node, ast.DictComp):
            return any(
                self._is_set_expr(gen.iter, set_names)
                for gen in node.generators
            )
        if isinstance(node, ast.Call):
            func = node.func
            # dict.fromkeys(<set>)
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "fromkeys"
                and isinstance(func.value, ast.Name)
                and func.value.id == "dict"
                and node.args
            ):
                return self._is_set_expr(node.args[0], set_names)
            # dict(<comprehension over a set>)
            if (
                isinstance(func, ast.Name)
                and func.id == "dict"
                and node.args
                and isinstance(
                    node.args[0], (ast.GeneratorExp, ast.ListComp)
                )
            ):
                return any(
                    self._is_set_expr(gen.iter, set_names)
                    for gen in node.args[0].generators
                )
        return False

    def _is_hash_dict_view(
        self, node: ast.expr, dict_names: set[str]
    ) -> bool:
        """Iteration over a hash-ordered dict: the bare name, or a
        ``.keys()`` / ``.values()`` / ``.items()`` view of it."""
        if isinstance(node, ast.Name):
            return node.id in dict_names
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("keys", "values", "items")
            and isinstance(node.func.value, ast.Name)
        ):
            return node.func.value.id in dict_names
        return False

    def _is_unordered_iter(
        self, node: ast.expr, set_names: set[str], dict_names: set[str]
    ) -> bool:
        return self._is_set_expr(node, set_names) or self._is_hash_dict_view(
            node, dict_names
        )

    # -- hazard detection -----------------------------------------------------

    def _analyze_scope(
        self, body: list[ast.stmt], params: ast.arguments | None
    ) -> None:
        stmts = list(_walk_scope(body))
        assigned: list[_Binding] = []
        loop_bound: set[str] = set()
        # names whose accumulated order the scope normalizes afterwards:
        # a ``name.sort()`` call or a ``name = sorted(...)`` rebind
        sorted_names: set[str] = set()
        for stmt in stmts:
            if isinstance(stmt, ast.Assign):
                rebinds_sorted = isinstance(stmt.value, ast.Call) and (
                    call_func_name(stmt.value) == "sorted"
                )
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        assigned.append((target.id, stmt.value, None))
                        if rebinds_sorted:
                            sorted_names.add(target.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                assigned.append((stmt.target.id, stmt.value, stmt.annotation))
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                for target_node in ast.walk(stmt.target):
                    if isinstance(target_node, ast.Name):
                        loop_bound.add(target_node.id)
            elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                func = stmt.value.func
                if isinstance(func, ast.Attribute) and func.attr == "sort":
                    name = root_name(func.value)
                    if name is not None:
                        sorted_names.add(name)
        set_names = self._scope_set_names(assigned, loop_bound, params)
        dict_names = self._scope_hash_dict_names(
            assigned, loop_bound, set_names
        )
        for stmt in stmts:
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._check_for(stmt, set_names, dict_names, sorted_names)
            elif isinstance(stmt, ast.Return) and stmt.value is not None:
                self._check_ordered_expr(
                    stmt.value, set_names, dict_names, safe=False
                )
            elif isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, (ast.Yield, ast.YieldFrom)
            ):
                value = stmt.value.value
                if value is not None:
                    self._check_ordered_expr(
                        value, set_names, dict_names, safe=False
                    )

    def _check_for(
        self,
        stmt: ast.For | ast.AsyncFor,
        set_names: set[str],
        dict_names: set[str],
        sorted_names: set[str],
    ) -> None:
        if not self._is_unordered_iter(stmt.iter, set_names, dict_names):
            return
        for child in ast.walk(stmt):
            if isinstance(child, (ast.Yield, ast.YieldFrom)):
                self._report_iter(stmt.iter, "yields", dict_names)
                return
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in _ORDERED_BUILDERS
            ):
                target = root_name(child.func.value)
                if target is not None and target in sorted_names:
                    continue  # accumulated order is normalized afterwards
                self._report_iter(
                    stmt.iter, f"{child.func.attr}s to a list", dict_names
                )
                return

    def _check_ordered_expr(
        self,
        node: ast.expr,
        set_names: set[str],
        dict_names: set[str],
        safe: bool,
    ) -> None:
        """Walk a returned/yielded expression; ``safe`` is True once an
        order-insensitive consumer wraps the current subtree."""
        if isinstance(node, ast.Call):
            name = call_func_name(node)
            if self._is_hash_dict_view(node, dict_names):
                return  # d.keys()/.values()/.items() itself; parents decide
            child_safe = safe or name in _ORDER_INSENSITIVE
            if not safe and name in ("list", "tuple"):
                for arg in node.args:
                    if self._is_unordered_iter(arg, set_names, dict_names):
                        self._report_iter(
                            arg, f"is materialized by {name}()", dict_names
                        )
            for arg in node.args:
                self._check_ordered_expr(arg, set_names, dict_names, child_safe)
            for keyword in node.keywords:
                self._check_ordered_expr(
                    keyword.value, set_names, dict_names, child_safe
                )
            return
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            if not safe:
                for generator in node.generators:
                    if self._is_unordered_iter(
                        generator.iter, set_names, dict_names
                    ):
                        self._report_iter(
                            generator.iter,
                            "drives a returned comprehension",
                            dict_names,
                        )
            # inner expressions may hold further comprehensions
            self._check_ordered_expr(node.elt, set_names, dict_names, safe)
            return
        if isinstance(node, (ast.SetComp, ast.DictComp)):
            return  # unordered/keyed output: content is order-independent
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._check_ordered_expr(child, set_names, dict_names, safe)

    def _report_iter(
        self, node: ast.expr, verb: str, dict_names: set[str] | None = None
    ) -> None:
        source = "a set"
        fix = "wrap the set in sorted(...)"
        if dict_names and self._is_hash_dict_view(node, dict_names or set()):
            source = "a dict built from a set"
            fix = "sort the keys at build time or wrap in sorted(...)"
        self.report(
            node,
            f"iteration over {source} {verb} — hash order is not "
            f"deterministic; {fix}",
        )


def _walk_scope(body: list[ast.stmt]):
    """Every statement in a scope, recursing into compound statements
    but *not* into nested function/class definitions."""
    stack = list(body)
    while stack:
        stmt = stack.pop()
        yield stmt
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        for field_value in ast.iter_child_nodes(stmt):
            if isinstance(field_value, ast.stmt):
                stack.append(field_value)
            elif isinstance(field_value, ast.excepthandler):
                stack.extend(field_value.body)
    return


def _all_args(params: ast.arguments) -> list[ast.arg]:
    out = list(params.posonlyargs) + list(params.args) + list(params.kwonlyargs)
    if params.vararg is not None:
        out.append(params.vararg)
    if params.kwarg is not None:
        out.append(params.kwarg)
    return out


# -- R004: float equality on scores ------------------------------------------

_SCORE_NAME_RE = re.compile(
    r"(?:^|_)(?:score|scores|hegemony|heg|ndcg|cti|hhi|weight|weights|"
    r"frac|fraction|ratio|share|shares|mean)(?:_|$)"
)


class FloatEqualityChecker(BaseChecker):
    """R004 — no exact equality on float scores.

    Flags ``==`` / ``!=`` where either operand is a float literal or a
    name/attribute that reads as a score (``score``, ``hegemony``,
    ``ndcg``, ``weight_sum``, ``share``, ``mean`` …). Float scores are
    trimmed-mean sums whose low bits depend on summation order; exact
    comparison belongs only to integer accounting. Comparisons inside
    ``assert`` statements are exempt — the determinism tests *deliber-
    ately* assert byte-identical equality of identically-computed
    values, which is sound.
    """

    rule_id = "R004"

    def __init__(self, ctx: FileContext) -> None:
        super().__init__(ctx)
        self._assert_depth = 0

    def enter_Assert(self, node: ast.Assert) -> None:
        self._assert_depth += 1

    def leave_Assert(self, node: ast.Assert) -> None:
        self._assert_depth -= 1

    def enter_Compare(self, node: ast.Compare) -> None:
        if self._assert_depth == 0:
            operands = [node.left, *node.comparators]
            for index, op in enumerate(node.ops):
                if isinstance(op, (ast.Eq, ast.NotEq)):
                    left, right = operands[index], operands[index + 1]
                    reason = self._float_like(left) or self._float_like(right)
                    if reason:
                        self.report(
                            node,
                            f"float equality on {reason} — use "
                            "math.isclose(...) or exact-integer "
                            "accounting",
                        )
                        break

    def _float_like(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return f"float literal {node.value!r}"
        identifier: str | None = None
        if isinstance(node, ast.Name):
            identifier = node.id
        elif isinstance(node, ast.Attribute):
            identifier = node.attr
        if identifier is not None and _SCORE_NAME_RE.search(identifier.lower()):
            return f"score-like name {identifier!r}"
        return None


# -- R005: mutable defaults ---------------------------------------------------

_MUTABLE_FACTORIES = frozenset((
    "list", "dict", "set", "defaultdict", "OrderedDict", "Counter",
    "bytearray", "deque",
))


class MutableDefaultChecker(BaseChecker):
    """R005 — no mutable default arguments.

    A default evaluated once at ``def`` time and mutated per call leaks
    state across pipeline invocations; use ``None`` plus an inner
    default.
    """

    rule_id = "R005"

    def enter_FunctionDef(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda
    ) -> None:
        params = node.args
        for default in (*params.defaults, *params.kw_defaults):
            if default is None:
                continue
            if isinstance(
                default,
                (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                 ast.SetComp),
            ):
                self.report(
                    default,
                    "mutable default argument — use None and create the "
                    "container inside the function",
                )
            elif isinstance(default, ast.Call):
                name = call_func_name(default)
                if name in _MUTABLE_FACTORIES:
                    self.report(
                        default,
                        f"mutable default argument ({name}()) — use None "
                        "and create the container inside the function",
                    )

    enter_AsyncFunctionDef = enter_Lambda = enter_FunctionDef


# -- R006: swallowed exceptions ----------------------------------------------


class SwallowedExceptionChecker(BaseChecker):
    """R006 — no bare/overbroad except that swallows errors.

    A bare ``except:`` is always flagged; ``except Exception`` /
    ``except BaseException`` (alone or in a tuple) is flagged unless the
    handler re-raises. An absorbed error here turns a crash into a
    silently wrong ranking.
    """

    rule_id = "R006"

    def enter_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(
                node,
                "bare except swallows every error including "
                "KeyboardInterrupt — catch the specific exception",
            )
        elif self._overbroad(node.type) and not self._reraises(node):
            self.report(
                node,
                "overbroad except without re-raise swallows errors — "
                "catch the specific exception or re-raise",
            )

    @staticmethod
    def _overbroad(node: ast.expr) -> bool:
        names: list[ast.expr] = (
            list(node.elts) if isinstance(node, ast.Tuple) else [node]
        )
        return any(
            isinstance(name, ast.Name)
            and name.id in ("Exception", "BaseException")
            for name in names
        )

    @staticmethod
    def _reraises(node: ast.ExceptHandler) -> bool:
        return any(isinstance(child, ast.Raise) for child in ast.walk(node))


# -- R007: mutation of shared inputs in repro.perf ---------------------------

_PROTECTED_TYPES = frozenset(
    ("View", "PathSet", "Ranking", "PathStore", "MmapPathStore")
)
_MUTATING_METHODS = frozenset((
    "append", "extend", "insert", "add", "update", "clear", "pop",
    "popitem", "remove", "discard", "sort", "reverse", "setdefault",
))


class PerfMutationChecker(BaseChecker):
    """R007 — the batch engine must treat its inputs as read-only.

    Inside ``repro.perf`` modules, parameters annotated ``View`` /
    ``PathSet`` / ``Ranking`` / ``PathStore`` (including ``X | None``
    unions) are shared across cached computations: mutating one poisons
    every cache entry built from it (for a ``PathStore``, its flat
    arrays additionally back every consumer of the same record set).
    Flags attribute/subscript assignment, ``del``, and mutating method
    calls rooted at such a parameter. Rebinding the bare parameter name
    is fine (a local rebind, not a mutation).
    """

    rule_id = "R007"

    def __init__(self, ctx: FileContext) -> None:
        super().__init__(ctx)
        #: the protected parameter names of every enclosing function,
        #: outermost first
        self._frames: list[set[str]] = []

    @classmethod
    def applies_to(cls, module: str) -> bool:
        return module == "repro.perf" or module.startswith("repro.perf.")

    def enter_FunctionDef(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        self._frames.append({
            arg.arg
            for arg in _all_args(node.args)
            if annotation_names(arg.annotation) & _PROTECTED_TYPES
        })

    def leave_FunctionDef(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        self._frames.pop()

    enter_AsyncFunctionDef = enter_FunctionDef
    leave_AsyncFunctionDef = leave_FunctionDef

    def enter_Assign(self, node: ast.Assign) -> None:
        self._check_targets(node, node.targets, "assigns into")

    def enter_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_targets(node, [node.target], "assigns into")

    def enter_Delete(self, node: ast.Delete) -> None:
        self._check_targets(node, node.targets, "deletes from")

    def enter_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _MUTATING_METHODS:
            name = root_name(func.value)
            for protected in self._frames:
                if name in protected:
                    self._report_mutation(
                        node, name, f"calls .{func.attr}() on"
                    )

    def _check_targets(
        self, node: ast.stmt, targets: list[ast.expr], verb: str
    ) -> None:
        for protected in self._frames:
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    name = root_name(target)
                    if name in protected:
                        self._report_mutation(node, name, verb)

    def _report_mutation(self, node: ast.AST, name: str, verb: str) -> None:
        self.report(
            node,
            f"{verb} shared parameter {name!r} — perf-layer inputs are "
            "read-only (mutation poisons cross-metric caches)",
        )


# -- R008: metric naming convention ------------------------------------------

_METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")
_INSTRUMENT_FACTORIES = frozenset(("counter", "gauge", "histogram"))


def _registered_metric(name: str) -> bool:
    """Whether ``name`` is in the metric registry (any case).

    Imported lazily so the linter keeps working on trees where
    ``repro.core`` itself fails to import — the rule then degrades to
    checking only the instrument-name convention.
    """
    try:
        from repro.core.registry import maybe_spec
    except Exception:  # repro: noqa[R006] — degrade, don't crash the lint run
        return True
    return maybe_spec(name) is not None


class MetricNameChecker(BaseChecker):
    """R008 — metric names come from the metric registry, instrument
    names follow ``stage.metric_name``.

    Two shapes are checked. Every string literal passed to
    ``.counter(...)`` / ``.gauge(...)`` / ``.histogram(...)`` must be
    dotted lowercase with at least two segments (``lint.files``,
    ``sanitize.dropped.loop``). And every string literal passed as the
    first argument of a ``.ranking(...)`` method call must name a
    metric registered in :mod:`repro.core.registry` — so a newly
    registered metric is lint-covered automatically, and a typo'd or
    unregistered name is caught statically. Dynamic names (f-strings,
    variables) are skipped — the registry lookup and the Prometheus
    exporter cover those at runtime. The rule guards the *production*
    namespace: it applies to ``repro.*`` modules only, so unit tests
    may use toy names.
    """

    rule_id = "R008"

    @classmethod
    def applies_to(cls, module: str) -> bool:
        return module == "repro" or module.startswith("repro.")

    def enter_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _INSTRUMENT_FACTORIES
            and node.args
        ):
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                if _METRIC_NAME_RE.fullmatch(first.value) is None:
                    self.report(
                        first,
                        f"metric name {first.value!r} violates the "
                        "stage.metric_name convention (dotted lowercase, "
                        "at least two segments)",
                    )
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "ranking"
            and node.args
        ):
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                if not _registered_metric(first.value):
                    self.report(
                        first,
                        f"metric {first.value!r} is not registered in "
                        "repro.core.registry (register the spec, or fix "
                        "the name)",
                    )


#: every checker, in rule-id order
ALL_CHECKERS: tuple[type[BaseChecker], ...] = (
    UnseededRngChecker,
    WallClockChecker,
    UnorderedIterationChecker,
    FloatEqualityChecker,
    MutableDefaultChecker,
    SwallowedExceptionChecker,
    PerfMutationChecker,
    MetricNameChecker,
)
