"""Reporters: text, JSON, SARIF 2.1.0, and obs metrics emission.

The text reporter is what ``make lint`` prints; the JSON reporter is
for tooling (stable key order, one object per finding); the SARIF
reporter (``--format sarif`` / ``make lint-sarif``) emits the OASIS
SARIF 2.1.0 shape consumed by standard CI annotation tooling (GitHub
code scanning, VS Code SARIF viewers); and ``emit_metrics`` pushes the
run's stats into a :class:`repro.obs.metrics.MetricsRegistry` under the
``lint.*`` namespace so a traced run (``repro-lint --trace``)
reports them alongside the pipeline's own instruments:

==========================  =======  ==================================
name                        kind     meaning
==========================  =======  ==================================
lint.files                  counter  files scanned
lint.findings               counter  unsuppressed findings
lint.findings.r001 … r012   counter  unsuppressed findings per rule
lint.suppressed.noqa        counter  findings silenced by inline noqa
==========================  =======  ==================================
"""

from __future__ import annotations

import json

from repro.lint.engine import LintResult
from repro.lint.rules import RULES

#: the SARIF 2.1.0 schema URI (OASIS errata01 canonical location)
SARIF_SCHEMA_URI = (
    "https://docs.oasis-open.org/sarif/sarif/v2.1.0/errata01/os/schemas/"
    "sarif-schema-2.1.0.json"
)
SARIF_VERSION = "2.1.0"


def render_text(result: LintResult, verbose: bool = False) -> str:
    """The human-readable report: one line per finding plus a summary."""
    lines: list[str] = []
    for finding in result.findings:
        lines.append(finding.render())
        if verbose and finding.code:
            lines.append(f"    {finding.code}")
    for path, error in result.parse_errors:
        lines.append(f"{path}: parse error: {error}")
    lines.append(
        f"{len(result.findings)} finding(s) in {result.files_scanned} "
        f"file(s); {result.suppressed_noqa} suppressed by noqa"
    )
    return "\n".join(lines)


def render_stats(result: LintResult) -> str:
    """The per-rule breakdown appended under ``--stats``."""
    lines = ["findings by rule:"]
    for rule_id, count in result.findings_by_rule().items():
        rule = RULES[rule_id]
        lines.append(f"  {rule_id} {rule.name:<22} {count}")
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """The machine-readable report (stable key order)."""
    payload = {
        "findings": [finding.as_dict() for finding in result.findings],
        "parse_errors": [
            {"path": path, "error": error}
            for path, error in result.parse_errors
        ],
        "stats": result.stats(),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_sarif(result: LintResult) -> str:
    """The findings as a SARIF 2.1.0 log (one run, stable ordering).

    Every catalog rule appears in the driver's ``rules`` array (so
    viewers can show the invariant text even for clean runs) and each
    finding references its rule by ``ruleId`` + ``ruleIndex``. Parse
    errors — conditions of the *run* rather than of a source region —
    surface as tool execution notifications on the invocation, which
    also carries ``executionSuccessful``.
    """
    rule_ids = list(RULES)
    rules = [
        {
            "id": rule.id,
            "name": rule.name,
            "shortDescription": {"text": rule.summary},
            "fullDescription": {"text": rule.invariant},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in RULES.values()
    ]
    results = [
        {
            "ruleId": finding.rule_id,
            "ruleIndex": rule_ids.index(finding.rule_id),
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": finding.path},
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col,
                            "snippet": {"text": finding.code},
                        },
                    }
                }
            ],
        }
        for finding in result.findings
    ]
    notifications = [
        {
            "level": "error",
            "message": {"text": f"parse error in {path}: {error}"},
        }
        for path, error in result.parse_errors
    ]
    log = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "rules": rules,
                    }
                },
                "columnKind": "unicodeCodePoints",
                "results": results,
                "invocations": [
                    {
                        "executionSuccessful": result.ok(),
                        "toolExecutionNotifications": notifications,
                    }
                ],
            }
        ],
    }
    return json.dumps(log, indent=2)


def render_rules() -> str:
    """The ``--list-rules`` catalog: id, name, summary, invariant."""
    lines: list[str] = []
    for rule in RULES.values():
        lines.append(f"{rule.id} {rule.name}: {rule.summary}")
        lines.append(f"     protects: {rule.invariant}")
    return "\n".join(lines)


def emit_metrics(result: LintResult, metrics) -> None:
    """Record the run's stats in an obs metrics registry (``lint.*``)."""
    metrics.counter("lint.files").inc(result.files_scanned)
    metrics.counter("lint.findings").inc(len(result.findings))
    for rule_id, count in result.findings_by_rule().items():
        metrics.counter(f"lint.findings.{rule_id.lower()}").inc(count)
    metrics.counter("lint.suppressed.noqa").inc(result.suppressed_noqa)
