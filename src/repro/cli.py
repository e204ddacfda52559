"""Command-line interface: ``repro-rank``.

Subcommands mirror the paper's workflow:

* ``world``       — build a world and print its summary sizes;
* ``rank``        — compute one metric's top-k for a country;
* ``filter``      — print the Table-1 sanitization report;
* ``case-study``  — print a Table-5-style four-metric table;
* ``census``      — print the in-country VP census (Tables 3–4);
* ``stability``   — NDCG vs VP-count downsampling (Figures 4–5);
* ``dominance``   — continental AHI dominance (Table 12);
* ``sovereignty`` — one country's foreign-carrier dependence;
* ``report``      — full markdown country profile;
* ``disconnect``  — what-if removal of ASes or a whole country's ASes;
* ``concentration`` — HHI market concentration per country;
* ``release``     — write the reproducibility dataset to a directory;
* ``replay``      — recompute a ranking from a released paths.jsonl
  (no world needed: relationships are inferred from the paths);
* ``trace``       — run the pipeline under the observability layer and
  print the Figure-6-style stage report (``--json`` for JSONL trace
  events, ``--prom`` for a Prometheus text exposition); ``--diff OLD
  NEW`` compares two ``--json`` traces span by span instead;
* ``lint``        — run the repro-lint static analyzer (determinism /
  purity / metric-correctness rules R001–R008) against the baseline;
  ``--trace`` appends the obs stage report with the ``lint.*`` metrics;
* ``serve``       — load the world once and answer ``/rank`` /
  ``/report`` / ``/case-study`` / ``/healthz`` over HTTP, warm queries
  served from the content-keyed artifact store (also installed as the
  standalone ``repro-serve`` script; see :mod:`repro.serve.cli`);
* ``sweep``       — batch rankings: every requested metric × country in
  one pass through the shared path index and cross-metric caches
  (Tables 9–12 style output at scale);
* ``watch``       — monitor an ordered snapshot stream (world names,
  released ``paths.jsonl`` files, directories, or globs) for rank
  drift: Kendall-τ / NDCG / top-k churn per transition, emitted as a
  deterministic JSONL event stream (``--json``), a Prometheus
  exposition (``--prom``), or a human-readable drift summary.

``--workers N`` (global flag) is validated (``N >= 1``, else exit 2)
and otherwise ignored: the pipeline and the stability trials run
serially in one process.

Worlds: ``small`` (seconds), ``default`` (the generated ~1000-AS world),
``paper2021`` / ``paper2023`` (the curated case-study snapshots).

Unknown metrics and country codes are validated up front against the
metric registry (:mod:`repro.core.registry`) and the selected world's
country registry; the CLI prints a one-line error to stderr and exits
with status 2 instead of surfacing a traceback or empty output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.case_studies import case_study_table, render_case_study
from repro.analysis.concentration import country_concentrations, render_concentrations
from repro.analysis.regions import continental_dominance, render_dominance_table
from repro.analysis.reports import country_report
from repro.analysis.resilience import ases_registered_in, disconnection_impact
from repro.analysis.sovereignty import dependency_matrix, render_dependencies
from repro.analysis.stability import international_stability, national_stability
from repro.analysis.vp_distribution import render_census, vp_census
from repro.core.pipeline import PipelineConfig, PipelineResult, run_pipeline
from repro.core.registry import (
    get_spec,
    maybe_spec,
    metric_names,
    normalize_country,
)
from repro.io.export import release_dataset
from repro.io.replay import ReplaySession
from repro.lint import Baseline, LintConfig, run_lint
from repro.lint.cli import DEFAULT_BASELINE
from repro.lint.report import (
    emit_metrics,
    render_json,
    render_sarif,
    render_text,
)
from repro.obs.export import (
    stage_report,
    to_jsonl,
    to_prometheus,
    trace_diff,
    validate_jsonl,
)
from repro.obs.trace import Tracer
from repro.topology.catalog import WORLD_CHOICES, build_world
from repro.topology.world import World

#: exit status for input-validation failures (argparse uses 2 as well)
EXIT_USAGE = 2


def _fail(message: str) -> int:
    """Print a one-line error and return the usage exit status."""
    print(f"repro-rank: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _bad_metric(metric: str) -> str:
    return (
        f"unknown metric {metric!r} (valid: {', '.join(metric_names())})"
    )


def _bad_country(world: World, code: str) -> str:
    known = ", ".join(world.countries.codes())
    return f"unknown country {code!r} for world {world.name!r} (valid: {known})"


def _normalize_metric(metric: str) -> str | None:
    """The canonical registered metric name, or ``None`` when unknown."""
    spec = maybe_spec(metric)
    return spec.name if spec is not None else None


def _normalize_country(world: World, code: str) -> str | None:
    """The canonical country code, or ``None`` when not in the world."""
    upper = normalize_country(code)
    return upper if upper in world.countries else None


def best_traced_country(result: PipelineResult) -> str:
    """The country whose rankings the ``trace`` subcommand computes:
    the one with the most in-country VPs (ties break alphabetically),
    falling back to the first destination country seen."""
    census = result.vp_geo.census()
    if census:
        return min(census, key=lambda code: (-census[code], code))
    countries = result.paths.countries()
    return countries[0] if countries else "US"


def run_traced(
    world_kind: str = "small",
    seed: int = 0,
    country: str | None = None,
    capture_memory: bool = False,
    world: World | None = None,
    store_backend: str = "memory",
    spill_dir: str | None = None,
) -> tuple[PipelineResult, Tracer]:
    """Run the full pipeline under a tracer, then compute one ranking
    per metric family (cone, hegemony, AHC, CTI) so the trace covers
    every Figure-6 stage. Shared by ``repro-rank trace`` and the
    benchmark harness (which persists the trace as the perf baseline).
    """
    if world is None:
        world = build_world(world_kind, seed)
    tracer = Tracer(capture_memory=capture_memory)
    result = run_pipeline(
        world,
        PipelineConfig(
            seed=seed, trace=True, store_backend=store_backend,
            spill_dir=spill_dir,
        ),
        tracer,
    )
    code = country or best_traced_country(result)
    for metric in ("CCI", "AHN", "AHC", "CTI"):
        result.ranking(metric, code)
    return result, tracer


def _run_trace_diff(old: str, new: str) -> int:
    """``trace --diff OLD NEW``: both streams must pass the trace
    schema check."""
    streams = []
    for path in (old, new):
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            return _fail(f"{path}: cannot read trace ({error})")
        problems = validate_jsonl(text)
        if problems:
            return _fail(f"{path}: malformed trace ({problems[0]})")
        streams.append([json.loads(line) for line in text.splitlines() if line.strip()])
    print(trace_diff(*streams))
    return 0


def _run_watch(args: argparse.Namespace) -> int:
    """The ``watch`` subcommand: validate, stream, emit."""
    from repro.monitor import (
        WatchConfig,
        WatchError,
        render_watch,
        resolve_snapshots,
        watch,
        watch_key,
    )

    metric_list = [m for m in args.metrics.split(",") if m.strip()]
    if not metric_list:
        return _fail("--metrics needs at least one metric name")
    canonical = [_normalize_metric(m) for m in metric_list]
    for name, norm in zip(metric_list, canonical):
        if norm is None:
            return _fail(_bad_metric(name))
    countries: tuple[str, ...] | None = None
    if args.countries is not None:
        codes = [c.strip() for c in args.countries.split(",") if c.strip()]
        if not codes:
            return _fail("--countries needs at least one country code")
        for code in codes:
            if len(code) != 2 or not code.isalpha():
                return _fail(
                    f"country {code!r} is not a two-letter country code"
                )
        countries = tuple(normalize_country(code) for code in codes)
    if args.resume and args.checkpoint is None:
        return _fail("--resume requires --checkpoint")
    if args.workers < 1:
        return _fail(f"--workers must be >= 1 (got {args.workers})")
    try:
        config = WatchConfig(
            metrics=tuple(canonical),
            countries=countries,
            top=args.top,
            tau_threshold=args.tau_threshold,
            ndcg_threshold=args.ndcg_threshold,
            seed=args.seed,
        )
        refs = resolve_snapshots(args.snapshots)
    except WatchError as error:
        return _fail(str(error))
    checkpoint = None
    if args.checkpoint is not None:
        from repro.resilience.checkpoint import Checkpoint

        checkpoint = Checkpoint.open(
            args.checkpoint,
            watch_key([ref.identity() for ref in refs], config),
            resume=args.resume,
        )
    tracer = Tracer()
    try:
        run = watch(refs, config, tracer=tracer, checkpoint=checkpoint)
    except WatchError as error:
        return _fail(str(error))
    finally:
        if checkpoint is not None:
            checkpoint.close()
    if args.json:
        print(run.jsonl())
    elif args.prom:
        print(to_prometheus(tracer.metrics))
    else:
        print(render_watch(run))
    if args.trace:
        print(stage_report(tracer, title="watch stage report"))
    tracer.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point (also exposed as the ``repro-rank`` script)."""
    parser = argparse.ArgumentParser(
        prog="repro-rank",
        description="Country-level AS rankings over a simulated BGP substrate",
    )
    parser.add_argument("--world", choices=WORLD_CHOICES, default="small")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers", type=int, default=1,
        help="accepted for compatibility (must be >= 1); the pipeline "
             "and stability trials run serially",
    )
    parser.add_argument(
        "--store", choices=("memory", "mmap"), default="memory",
        help="path-store backend: 'mmap' spills sanitized records to "
             "disk and maps them read-only, bounding peak RSS "
             "(rankings are byte-identical either way)",
    )
    parser.add_argument(
        "--spill-dir", default=None, metavar="DIR",
        help="spill directory for --store mmap (default: a temporary "
             "directory, removed when the run finishes; a named "
             "directory persists and lets an interrupted ingestion "
             "resume)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("world", help="print world summary")

    rank = sub.add_parser("rank", help="print a ranking")
    rank.add_argument("metric", help="/".join(metric_names()))
    rank.add_argument("country", nargs="?", help="two-letter code")
    rank.add_argument("-k", type=int, default=10)

    sub.add_parser("filter", help="print the Table-1 filter report")

    case = sub.add_parser("case-study", help="print a Table-5-style table")
    case.add_argument("country")

    sub.add_parser("census", help="print the VP census")

    stability = sub.add_parser("stability", help="downsampling NDCG curve")
    stability.add_argument("country")
    stability.add_argument("metric", nargs="?", default="AHN")
    stability.add_argument("--trials", type=int, default=8)

    sweep = sub.add_parser(
        "sweep", help="batch rankings: every metric × country in one pass"
    )
    sweep.add_argument(
        "--metrics", default="CCI,CCN,AHI,AHN",
        help="comma-separated metric list (default: the paper's four)",
    )
    sweep.add_argument(
        "--countries", default=None,
        help="comma-separated country codes (default: every country "
             "with a qualifying national view)",
    )
    sweep.add_argument("-k", type=int, default=5, help="entries per table")
    sweep.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="persist each completed ranking to PATH as it finishes",
    )
    sweep.add_argument(
        "--resume", action="store_true",
        help="skip rankings already banked in --checkpoint "
             "(the resumed output is identical to an uninterrupted run)",
    )

    sub.add_parser("dominance", help="continental AHI dominance table")

    sovereignty = sub.add_parser(
        "sovereignty", help="a country's foreign-carrier dependence"
    )
    sovereignty.add_argument("country")

    report = sub.add_parser("report", help="full markdown country profile")
    report.add_argument("country")

    disconnect = sub.add_parser(
        "disconnect", help="what-if: remove ASes (ASNs or a country code)"
    )
    disconnect.add_argument("target", help="comma-separated ASNs, or a country code")

    conc = sub.add_parser("concentration", help="HHI per country")
    conc.add_argument("countries", nargs="?", default="US,AU,JP,RU")
    conc.add_argument("--metric", default="AHN")

    release = sub.add_parser("release", help="export the dataset")
    release.add_argument("directory")
    release.add_argument("--countries", default="AU,JP,RU,US")

    replay = sub.add_parser("replay", help="recompute from released paths")
    replay.add_argument("paths_file")
    replay.add_argument("metric")
    replay.add_argument("country", nargs="?")
    replay.add_argument("-k", type=int, default=10)

    trace = sub.add_parser(
        "trace", help="run the pipeline traced and print the stage report"
    )
    trace.add_argument(
        "--json", action="store_true", help="emit the JSONL trace events"
    )
    trace.add_argument(
        "--prom", action="store_true",
        help="emit a Prometheus-style text exposition of the metrics",
    )
    trace.add_argument(
        "--country", help="country for the ranking stages (default: best VP coverage)"
    )
    trace.add_argument(
        "--memory", action="store_true",
        help="also capture tracemalloc peak memory per stage",
    )
    trace.add_argument(
        "--diff", nargs=2, metavar=("OLD", "NEW"),
        help="compare two --json traces: summed wall and self time per "
             "span name, with deltas and ratios (runs no pipeline)",
    )

    watch = sub.add_parser(
        "watch", help="monitor a snapshot stream for rank drift"
    )
    watch.add_argument(
        "snapshots", nargs="+",
        help="ordered snapshot specs: a world name (optionally name@SEED), "
             "a released paths.jsonl, a directory of them, or a glob",
    )
    watch.add_argument(
        "--metrics", default="CCI,AHI",
        help="comma-separated metric list to monitor (default: CCI,AHI)",
    )
    watch.add_argument(
        "--countries", default=None,
        help="comma-separated country codes (default: resolved from the "
             "first snapshot)",
    )
    watch.add_argument(
        "--top", type=int, default=10, help="churn window (default: 10)"
    )
    watch.add_argument(
        "--tau-threshold", type=float, default=0.8,
        help="alert when full-ranking Kendall-tau falls below this",
    )
    watch.add_argument(
        "--ndcg-threshold", type=float, default=0.9,
        help="alert when NDCG@top falls below this",
    )
    watch.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="persist snapshot metadata and rankings to PATH as they finish",
    )
    watch.add_argument(
        "--resume", action="store_true",
        help="skip work already banked in --checkpoint (the resumed event "
             "stream is byte-identical to an uninterrupted run)",
    )
    watch.add_argument(
        "--json", action="store_true", help="emit the JSONL event stream"
    )
    watch.add_argument(
        "--prom", action="store_true",
        help="emit a Prometheus-style text exposition of the monitor metrics",
    )
    watch.add_argument(
        "--trace", action="store_true",
        help="append the obs stage report with the monitor.* metrics",
    )

    serve = sub.add_parser(
        "serve", help="serve rankings over HTTP from one loaded world"
    )
    from repro.serve.cli import add_serve_arguments, run_serve

    add_serve_arguments(serve)

    lint = sub.add_parser(
        "lint", help="run the repro-lint static analyzer (rules R001-R012, "
                     "including the whole-program tier)"
    )
    lint.add_argument(
        "paths", nargs="*", default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    lint.add_argument("--json", action="store_true", help="JSON report")
    lint.add_argument(
        "--sarif", action="store_true",
        help="SARIF 2.1.0 report (for CI annotation tooling)",
    )
    lint.add_argument(
        "--trace", action="store_true",
        help="append the obs stage report with the lint.* metrics",
    )

    args = parser.parse_args(argv)

    # -- flag sanity (before any file or pipeline work) ----------------------
    if getattr(args, "k", None) is not None and args.k < 1:
        return _fail(f"-k must be >= 1 (got {args.k})")
    if args.command == "stability" and args.trials < 1:
        return _fail(f"--trials must be >= 1 (got {args.trials})")

    if args.command == "replay":
        spec = maybe_spec(args.metric)
        if spec is None:
            return _fail(_bad_metric(args.metric))
        if not spec.replayable:
            return _fail(
                f"metric {spec.name} cannot be replayed from released paths"
            )
        session = ReplaySession.from_file(args.paths_file)
        country = normalize_country(args.country)
        if country is not None:
            known = session.paths.countries()
            if country not in known:
                return _fail(
                    f"unknown country {args.country!r} in "
                    f"{args.paths_file} (valid: {', '.join(known)})"
                )
        if spec.needs_country and country is None:
            return _fail(f"metric {spec.name} requires a country code")
        print(session.ranking(spec.name, country).render(args.k))
        return 0

    if args.command == "watch":
        return _run_watch(args)

    if args.command == "serve":
        return run_serve(args, prog="repro-rank")

    if args.command == "lint":
        baseline = (
            Baseline.load(DEFAULT_BASELINE)
            if Path(DEFAULT_BASELINE).is_file() else None
        )
        tracer = Tracer()
        result = run_lint(args.paths, LintConfig(baseline=baseline), tracer)
        emit_metrics(result, tracer.metrics)
        if args.sarif:
            print(render_sarif(result))
        else:
            print(render_json(result) if args.json else render_text(result))
        if args.trace:
            print(stage_report(tracer, title="lint stage report"))
        return 0 if result.ok() else 1

    if args.command == "trace" and args.diff is not None:
        return _run_trace_diff(*args.diff)

    world = build_world(args.world, args.seed)

    # -- input validation (before the expensive pipeline run) ---------------
    metric_arg = getattr(args, "metric", None)
    if args.command in ("rank", "stability", "concentration") and metric_arg:
        metric = _normalize_metric(metric_arg)
        if metric is None:
            return _fail(_bad_metric(metric_arg))
        args.metric = metric
        if (
            args.command == "stability"
            and get_spec(metric).family not in ("cone", "hegemony")
        ):
            return _fail(
                f"metric {metric} is not supported by stability analysis "
                "(needs a cone or hegemony metric)"
            )
    country_arg = getattr(args, "country", None)
    if args.command in (
        "case-study", "stability", "sovereignty", "report",
    ) or (args.command in ("rank", "trace") and country_arg):
        if country_arg is None:
            return _fail("this command requires a country code")
        country = _normalize_country(world, country_arg)
        if country is None:
            return _fail(_bad_country(world, country_arg))
        args.country = country
    if args.command == "rank":
        if get_spec(args.metric).needs_country and args.country is None:
            return _fail(f"metric {args.metric} requires a country code")
    if args.workers < 1:
        return _fail(f"--workers must be >= 1 (got {args.workers})")
    if (
        args.command in ("concentration", "sweep", "release")
        and args.countries is not None
    ):
        codes = [c for c in args.countries.split(",") if c]
        if not codes:
            return _fail("--countries needs at least one country code")
        normalized = [_normalize_country(world, code) for code in codes]
        for code, norm in zip(codes, normalized):
            if norm is None:
                return _fail(_bad_country(world, code))
        args.countries = ",".join(normalized)
    if args.command == "sweep":
        metrics = [m for m in args.metrics.split(",") if m]
        if not metrics:
            return _fail("--metrics needs at least one metric name")
        normalized_metrics = [_normalize_metric(m) for m in metrics]
        for name, norm in zip(metrics, normalized_metrics):
            if norm is None:
                return _fail(_bad_metric(name))
        args.metrics = ",".join(normalized_metrics)
        if args.resume and args.checkpoint is None:
            return _fail("--resume requires --checkpoint")
    if args.command == "disconnect" and args.target.isalpha():
        if len(args.target) != 2 or _normalize_country(world, args.target) is None:
            return _fail(_bad_country(world, args.target))
    if args.command == "disconnect" and not args.target.isalpha():
        try:
            [int(a) for a in args.target.split(",")]
        except ValueError:
            return _fail(
                f"target {args.target!r} is neither a country code nor a "
                "comma-separated ASN list"
            )

    if args.command == "world":
        for key, value in world.summary().items():
            print(f"{key:>12}: {value}")
        return 0

    if args.command == "trace":
        _, tracer = run_traced(
            args.world, args.seed, args.country,
            capture_memory=args.memory, world=world,
            store_backend=args.store, spill_dir=args.spill_dir,
        )
        if args.json:
            print(to_jsonl(tracer))
        elif args.prom:
            print(to_prometheus(tracer.metrics))
        else:
            print(stage_report(
                tracer,
                title=f"pipeline stage report (world={args.world}, seed={args.seed})",
            ))
        tracer.close()
        return 0

    result = run_pipeline(
        world,
        PipelineConfig(
            seed=args.seed, workers=args.workers,
            store_backend=args.store, spill_dir=args.spill_dir,
        ),
    )
    if args.command == "rank":
        ranking = result.ranking(args.metric, args.country)
        print(ranking.render(args.k, result.as_name))
    elif args.command == "sweep":
        metrics = tuple(args.metrics.split(","))
        countries = (
            tuple(args.countries.split(",")) if args.countries else None
        )
        checkpoint = None
        if args.checkpoint is not None:
            from repro.resilience.checkpoint import Checkpoint, sweep_key

            checkpoint = Checkpoint.open(
                args.checkpoint,
                sweep_key(world.fingerprint(), result.config, metrics, countries),
                resume=args.resume,
            )
        try:
            rankings = result.rank_all(metrics, countries, checkpoint=checkpoint)
        finally:
            if checkpoint is not None:
                checkpoint.close()
        if not rankings:
            print("(no qualifying countries — pass --countries)")
        for ranking in rankings.values():
            print(ranking.render(args.k, result.as_name))
            print()
    elif args.command == "filter":
        print(result.paths.report.render())
    elif args.command == "case-study":
        rows = case_study_table(result, args.country)
        print(render_case_study(rows, args.country))
    elif args.command == "census":
        print(render_census(vp_census(result)))
    elif args.command == "stability":
        metric = args.metric  # already canonical (validated above)
        runner = (
            national_stability
            if get_spec(metric).view_kind == "national"
            else international_stability
        )
        curve = runner(
            result, args.country, metric, trials=args.trials,
            workers=args.workers,
        )
        for size, mean, std in curve.as_rows():
            print(f"{size:>5} VPs  NDCG {mean:.3f} ±{std:.3f}")
        print(f">=0.8 from {curve.min_vps_for(0.8)} VPs, "
              f">=0.9 from {curve.min_vps_for(0.9)} VPs")
    elif args.command == "dominance":
        print(render_dominance_table(continental_dominance(result), result))
    elif args.command == "sovereignty":
        matrix = dependency_matrix(result)
        print(render_dependencies(matrix, args.country))
    elif args.command == "report":
        print(country_report(result, args.country).markdown)
    elif args.command == "disconnect":
        if args.target.isalpha() and len(args.target) == 2:
            removal = ases_registered_in(result.world, normalize_country(args.target))
        else:
            removal = frozenset(int(a) for a in args.target.split(","))
        impact = disconnection_impact(result.world, removal)
        print(impact.render())
        stranded = impact.stranded_countries()
        if stranded:
            print("stranded (>50% lost):", ", ".join(stranded))
    elif args.command == "concentration":
        codes = tuple(c for c in args.countries.split(",") if c)
        print(render_concentrations(
            country_concentrations(result, codes, args.metric)
        ))
    elif args.command == "release":
        countries = [c for c in args.countries.split(",") if c]
        written = release_dataset(result, args.directory, countries)
        for key, path in written.items():
            print(f"{key:>14}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
