"""The ``repro-serve`` entry point and the ``repro-rank serve``
subcommand runner.

Startup is the expensive part — build the world, run the pipeline once
— and every request after that is a store lookup or an incremental
registry compute. The main thread runs the pipeline and then stays the
daemon's compute thread (:class:`~repro.serve.service.ComputeThread`):
every miss, report, case study and the ``--precompute`` sweep runs
there, so all of them allocate from the malloc arena the pipeline
filled, while the accept loop runs on a side thread and each
connection thread only parses, reads the store, renders and writes.
Validation follows the CLI-wide discipline: bad
input gets a one-line stderr message and exit status 2, never a
traceback (``tests/test_cli.py`` pins the cases).

Flags (plus the global ``--world/--seed``):

* ``--host`` / ``--port`` — bind address (``--port 0`` picks an
  ephemeral port and prints it, which the smoke tests rely on);
* ``--store PATH`` — persist the artifact store in the resilience
  checkpoint format, opened before the pipeline runs; a restart under
  the same world content and semantic config — or a sweep's
  ``--checkpoint`` file — serves every banked ranking warm
  (``--no-resume`` starts cold);
* ``--precompute METRICS`` — bank a sweep before binding (``all`` =
  every registry metric), optionally narrowed by ``--countries``;
* ``--max-requests N`` — serve N requests then exit (smoke/bench);
* ``--trace`` — print the obs stage report (``serve.*`` stats) on
  shutdown.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor

from repro.cli import _fail, split_names
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.core.registry import get_spec
from repro.obs.export import stage_report
from repro.obs.trace import Tracer
from repro.resilience.checkpoint import ArtifactStore, CheckpointError, store_key
from repro.serve.http import RankingServer
from repro.serve.service import ComputeThread, RankingService
from repro.topology.catalog import WORLD_CHOICES, build_world

DEFAULT_PORT = 8732


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """The serve flags, shared by ``repro-rank serve`` and
    ``repro-serve``."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help=f"bind port; 0 picks an ephemeral one (default: {DEFAULT_PORT})",
    )
    # dest "bank": repro-rank's global --store (the path-store backend)
    # owns args.store
    parser.add_argument(
        "--store", dest="bank", default=None, metavar="PATH",
        help="persist computed rankings to PATH (checkpoint format); a "
             "restart under the same world/config serves them warm",
    )
    parser.add_argument(
        "--no-resume", action="store_true",
        help="ignore rankings already banked in --store",
    )
    parser.add_argument(
        "--precompute", default=None, metavar="METRICS",
        help="bank a sweep before binding: comma-separated metric names, "
             "or 'all' for every registry metric",
    )
    parser.add_argument(
        "--countries", default=None,
        help="comma-separated country codes to precompute (default: every "
             "country with a qualifying national view)",
    )
    parser.add_argument(
        "--max-requests", type=int, default=None, metavar="N",
        help="answer N requests then exit (for smoke tests and benchmarks)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="print the obs stage report (serve.* stats) on shutdown",
    )


def run_serve(args: argparse.Namespace, prog: str = "repro-serve") -> int:
    """Validate, build the world once, then serve until shutdown.

    The calling thread runs the pipeline and then every computation a
    request needs; the accept loop runs on a side thread. SIGINT
    (``KeyboardInterrupt`` on the calling thread), ``--max-requests``
    and a failed accept loop each end both, and every thread this
    started has exited when it returns."""
    if not 0 <= args.port <= 65535:
        return _fail(f"--port must be in 0..65535 (got {args.port})", prog)
    if args.max_requests is not None and args.max_requests < 1:
        return _fail(
            f"--max-requests must be >= 1 (got {args.max_requests})", prog
        )
    if args.no_resume and args.bank is None:
        return _fail("--no-resume requires --store", prog)
    try:
        metrics = None if args.precompute in (None, "all") else split_names(
            args.precompute, "--precompute", "metric name",
            lambda name: get_spec(name).name,
        )
    except ValueError as error:
        return _fail(str(error), prog)

    world = build_world(args.world, args.seed)
    try:
        countries = None if args.countries is None else split_names(
            args.countries, "--countries", "country code", world.country_code
        )
    except ValueError as error:
        return _fail(str(error), prog)

    tracer = Tracer()
    config = PipelineConfig(seed=args.seed)
    try:
        store = ArtifactStore(
            store_key(world, config),
            path=args.bank,
            tracer=tracer,
            resume=not args.no_resume,
        )
    except CheckpointError as error:
        return _fail(str(error), prog)
    compute = ComputeThread()
    result = run_pipeline(world, config, tracer)
    service = RankingService(result, store, tracer, compute)
    if args.precompute is not None:
        banked = service.precompute(metrics, countries)
        print(f"{prog}: precomputed {banked} ranking(s) "
              f"({store.persisted} resumed from store)", file=sys.stderr)

    server = RankingServer(
        (args.host, args.port), service, max_requests=args.max_requests
    )
    print(
        f"{prog}: serving world={world.name} "
        f"fingerprint={service.fingerprint} "
        f"on http://{args.host}:{server.port}",
        file=sys.stderr, flush=True,
    )
    with ThreadPoolExecutor(1, thread_name_prefix="repro-serve-accept") as pool:
        accepting = None
        try:
            # started inside the try: a SIGINT that lands while the loop
            # starts still reaches server.stop(), or the pool's exit
            # would wait for an accept loop nothing ends
            accepting = pool.submit(server.serve)
            accepting.add_done_callback(lambda _: compute.stop())
            compute.run()
        except KeyboardInterrupt:
            pass
        finally:
            server.stop()
            compute.close()
            server.server_close()
            store.close()
            result.close()
        if accepting is not None:
            accepting.result()
    if args.trace:
        print(stage_report(tracer, title="serve stage report"))
    tracer.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for the standalone ``repro-serve`` script."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve country-level AS rankings over HTTP from one "
                    "loaded world",
    )
    parser.add_argument("--world", choices=WORLD_CHOICES, default="small")
    parser.add_argument("--seed", type=int, default=0)
    add_serve_arguments(parser)
    return run_serve(parser.parse_args(argv), prog="repro-serve")


if __name__ == "__main__":
    sys.exit(main())
