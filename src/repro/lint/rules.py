"""The rule catalog: ids, names, and the invariants they protect.

Each rule is a :class:`Rule` record plus a checker class in
:mod:`repro.lint.visitors` (``R001``–``R008``). The catalog is the
single source of truth: reporters, the CLI's ``--list-rules``,
suppression validation, the SARIF ``rules`` array, and the fixture
tests all read it. Rule ids are stable; retired ids are never reused:
``R009`` and ``R010``, the fork-safety and broadcast rules of the
retired process fan-out, and ``R011`` and ``R012``, the memo-coherence
and spec-purity rules of the retired call-graph tier (their invariants
are now checked by ``tests/topology/test_graph_version.py`` and
``tests/core/test_compute_purity.py``), stay unassigned.
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
    )
}


#: all rule ids, in catalog order
ALL_RULE_IDS: tuple[str, ...] = tuple(RULES)


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    #: the stripped source line, where a noqa directive is read
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
