"""The ``repro-lint`` command-line interface; ``repro-rank lint ARGS``
runs :func:`main` on ``ARGS``.

Exit codes: ``0`` clean, ``1`` findings or parse errors, ``2`` usage
errors, ``3`` runtime-guard breach (``--max-seconds``). Typical
invocations::

    repro-lint                              # src and tests, text report
    repro-lint src --format json            # machine-readable
    repro-lint src --format sarif           # SARIF 2.1.0 for CI annotation
    repro-lint src --select R001,R003       # a subset of rules
    repro-lint --list-rules                 # the rule catalog
    repro-lint src tests --max-seconds 5    # CI runtime guard
    repro-lint --trace                      # + the lint.* stage report

A finding is silenced only by an inline ``# repro: noqa[R00x]`` on its
line. The runtime guard reads its elapsed time from the run's obs
tracer span — the linter itself obeys R002 (no wall-clock reads outside
``repro.obs``).
"""

from __future__ import annotations

import argparse
import sys

from repro.lint.engine import DEFAULT_EXCLUDES, LintConfig, run_lint
from repro.lint.report import (
    emit_metrics,
    render_json,
    render_rules,
    render_sarif,
    render_stats,
    render_text,
)
from repro.lint.rules import ALL_RULE_IDS
from repro.obs.export import stage_report
from repro.obs.trace import Tracer

#: exit statuses (0 = clean; argparse exits 2 on a usage error)
EXIT_FINDINGS = 1
EXIT_TOO_SLOW = 3


def _parse_rule_list(raw: str) -> frozenset[str]:
    rules = frozenset(part.strip().upper() for part in raw.split(",") if part.strip())
    unknown = rules - set(ALL_RULE_IDS)
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown rule id(s): {', '.join(sorted(unknown))} "
            f"(valid: {', '.join(ALL_RULE_IDS)})"
        )
    return rules


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based invariant checker for the repro pipeline: "
            "determinism, purity, and metric-correctness rules"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
    )
    parser.add_argument(
        "--select", type=_parse_rule_list, default=None, metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore", type=_parse_rule_list, default=frozenset(),
        metavar="RULES", help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--exclude", action="append", default=None, metavar="NAME",
        help="directory name to skip during expansion "
             f"(default: {', '.join(DEFAULT_EXCLUDES)})",
    )
    parser.add_argument(
        "--max-seconds", type=float, default=None, metavar="S",
        help="fail (exit 3) if the lint run takes longer than S seconds",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="append the per-rule findings breakdown",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="append the obs stage report with the lint.* metrics",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point (also exposed as the ``repro-lint`` script)."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(render_rules())
        return 0

    config = LintConfig(
        select=args.select,
        ignore=args.ignore,
        exclude=tuple(args.exclude) if args.exclude else DEFAULT_EXCLUDES,
    )
    tracer = Tracer()
    result = run_lint(args.paths, config, tracer)
    emit_metrics(result, tracer.metrics)

    if args.format == "json":
        print(render_json(result))
    elif args.format == "sarif":
        print(render_sarif(result))
    else:
        print(render_text(result))
        if args.stats:
            print(render_stats(result))
    if args.trace:
        print(stage_report(tracer, title="lint stage report"))

    if args.max_seconds is not None:
        elapsed = tracer.find("lint")[0].dur_s
        if elapsed > args.max_seconds:
            print(
                f"repro-lint: error: lint took {elapsed:.2f}s, over the "
                f"--max-seconds {args.max_seconds:g} budget",
                file=sys.stderr,
            )
            return EXIT_TOO_SLOW

    return 0 if result.ok() else EXIT_FINDINGS


if __name__ == "__main__":
    sys.exit(main())
