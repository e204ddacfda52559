"""Suppression: the inline ``# repro: noqa[...]`` directive.

A directive on the flagged line silences it at the source::

    if total == 0.0:  # repro: noqa[R004]

``# repro: noqa`` with no bracket silences every rule on that line;
``# repro: noqa[R004,R006]`` silences just those. It is the one way to
silence a finding, so every exception sits next to the code it
excuses, with its reason.
"""

from __future__ import annotations

import re

from repro.lint.rules import Finding

#: matches the inline directive; group "rules" is the bracket body
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Z0-9,\s]+)\])?",
)

#: sentinel meaning "every rule is suppressed on this line"
ALL_RULES = frozenset(("*",))


def suppressed_rules(source_line: str) -> frozenset[str] | None:
    """The rule ids a line's directive suppresses.

    ``None`` when the line carries no directive; :data:`ALL_RULES` for
    a blanket ``# repro: noqa``; otherwise the listed ids.
    """
    match = _NOQA_RE.search(source_line)
    if match is None:
        return None
    body = match.group("rules")
    if body is None:
        return ALL_RULES
    return frozenset(part.strip() for part in body.split(",") if part.strip())


def is_suppressed(finding: Finding, source_line: str) -> bool:
    """Whether the line's directive covers the finding's rule."""
    rules = suppressed_rules(source_line)
    if rules is None:
        return False
    return rules is ALL_RULES or "*" in rules or finding.rule_id in rules
