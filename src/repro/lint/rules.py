"""The rule catalog: ids, names, and the invariants they protect.

Each rule is a :class:`Rule` record plus a checker class in
:mod:`repro.lint.visitors` (per-file rules, ``R001``–``R008``) or
:mod:`repro.lint.wprules` (whole-program rules ``R011`` and ``R012``,
which run over the call graph built by :mod:`repro.lint.callgraph`).
The catalog is the single source of truth: reporters, the CLI's
``--list-rules``, suppression validation, the SARIF ``rules`` array,
and the fixture tests all read it. Rule ids are stable; retired ids
are never reused (``R009`` and ``R010``, the fork-safety and broadcast
rules of the retired process fan-out, stay unassigned).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Rule:
    """One lint rule's identity and documentation."""

    id: str
    name: str
    summary: str
    #: the pipeline invariant the rule protects (see DESIGN.md §5)
    invariant: str


RULES: dict[str, Rule] = {
    rule.id: rule
    for rule in (
        Rule(
            "R001",
            "unseeded-rng",
            "unseeded RNG construction or module-level random.* call",
            "same seed ⇒ same world, same rankings: every RNG must be "
            "derived from an explicit seed",
        ),
        Rule(
            "R002",
            "wall-clock",
            "wall-clock read outside repro.obs",
            "metric values are deterministic for a fixed seed; only the "
            "observability layer may read clocks",
        ),
        Rule(
            "R003",
            "unordered-iteration",
            "set/frozenset iteration feeding returned or yielded "
            "ordered data without sorted(...)",
            "byte-identical output guarantee: ordered output must "
            "never depend on hash iteration order",
        ),
        Rule(
            "R004",
            "float-equality",
            "float == / != on a score-like expression",
            "hegemony/cone scores are floats; exact comparison hides "
            "platform and summation-order sensitivity — use "
            "math.isclose or exact-integer accounting",
        ),
        Rule(
            "R005",
            "mutable-default",
            "mutable default argument",
            "call-to-call state leakage breaks run-to-run "
            "reproducibility of repeated pipeline invocations",
        ),
        Rule(
            "R006",
            "swallowed-exception",
            "bare or overbroad except that swallows errors",
            "a silently absorbed error turns a crash into a silently "
            "wrong ranking",
        ),
        Rule(
            "R007",
            "perf-mutation",
            "mutation of a View/PathSet/Ranking/PathStore parameter "
            "inside repro.perf",
            "cache correctness: cached products must be exactly what "
            "the naive path would build, so shared inputs are "
            "read-only in the batch engine",
        ),
        Rule(
            "R008",
            "metric-name",
            "metric name violating the stage.metric_name dotted-"
            "lowercase convention, or a ranking metric missing from "
            "the repro.core.registry catalog",
            "the repro.obs namespace is documented and machine-"
            "consumed (Prometheus export) and ranking metrics have one "
            "source of truth (the registry); names must stay resolvable",
        ),
        Rule(
            "R011",
            "memo-coherence",
            "method mutating a field consulted by a version-memoised "
            "property without bumping the version "
            "(# repro: memo-guard)",
            "cache coherence: version-memoised products (p2c_edges, "
            "the adjacency snapshot) must be recomputed after any "
            "mutation of the fields they read — a missed version bump "
            "serves stale bytes forever",
        ),
        Rule(
            "R012",
            "spec-purity",
            "MetricSpec.compute callable transitively reaching "
            "unseeded RNG, a wall-clock read, or a parameter mutation",
            "registry purity: every metric compute is a pure function "
            "of (spec, ctx), so cached/checkpointed rankings are "
            "byte-identical to a fresh compute — checked by call-graph "
            "reachability, not per-module scoping",
        ),
    )
}


#: all rule ids, in catalog order
ALL_RULE_IDS: tuple[str, ...] = tuple(RULES)

#: the whole-program tier (checked via the call graph, not per file)
PROGRAM_RULE_IDS: tuple[str, ...] = ("R011", "R012")


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    #: the stripped source line, used for baseline matching
    code: str

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def as_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
            "code": self.code,
        }
