"""The end-to-end pipeline of Figure 6.

``world → propagate → daily RIBs → sanitize & geolocate → views →
rankings``, with every intermediate product exposed and every ranking
memoised. This module is the primary public entry point:

    >>> from repro import generate_world, run_pipeline
    >>> result = run_pipeline(generate_world(seed=7))
    >>> result.ranking("AHN", "AU").top(2)      # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.bgp.propagation import RoutingOutcome, propagate_all
from repro.bgp.rib import RibGenerationConfig, RibSeries, generate_rib_days
from repro.core.ranking import Ranking
from repro.core.registry import (
    VIEW_KINDS,
    MetricContext,
    MetricSpec,
    get_spec,
    metric_names,
    normalize_country,
    paper_metrics,
)
from repro.core.sanitize import PathSet, RelationshipOracle, sanitize_windows
from repro.core.views import View
from repro.geo.database import GeoDatabase
from repro.geo.prefix_geo import PrefixGeolocation, geolocate_prefixes
from repro.geo.vp_geo import VPGeolocator
from repro.obs.trace import NULL_TRACER, AnyTracer, Tracer
from repro.relationships.inference import InferredRelationships, infer_relationships
from repro.topology.world import World

if TYPE_CHECKING:  # perf imports core at runtime; the cycle is type-only
    from repro.perf.index import PathIndex
    from repro.perf.pool import WorkerPool
    from repro.resilience.checkpoint import ArtifactStore

#: Metrics the pipeline can compute, derived from the registry
#: (:mod:`repro.core.registry` is the single source of truth — adding a
#: metric there extends these automatically). Country metrics need
#: ``country``; CCO/AHO are the outbound (paths leaving a country)
#: extensions the paper's §7 proposes as future work.
COUNTRY_METRICS = metric_names(needs_country=True)
GLOBAL_METRICS = metric_names(needs_country=False)
ALL_METRICS = metric_names()


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    """All pipeline knobs in one place (every default is the paper's)."""

    rib: RibGenerationConfig = field(default_factory=RibGenerationConfig)
    #: address-database degradation (see GeoDatabase.from_world)
    geo_noise_rate: float = 0.02
    geo_miss_rate: float = 0.005
    #: prefix-geolocation majority threshold (§3.2.1 uses 50 %)
    geo_threshold: float = 0.5
    #: hegemony / CTI per-VP trim fraction (§1.2 uses 10 %)
    trim: float = 0.1
    #: label cones with inferred relationships instead of ground truth
    use_inferred_relationships: bool = False
    #: route tie-break policy: "hash" diversifies equally-good egresses
    #: across ASes (hot-potato realism); "asn" is the simplest policy
    tiebreak: str = "hash"
    #: number of routing planes (salted tie-break variants); VP ASes are
    #: spread across planes, adding the path diversity real collector
    #: ecosystems exhibit. 1 = single plane (only meaningful with "hash")
    path_diversity: int = 1
    #: address family the pipeline ranks (4 or 6); mirrors how the paper
    #: (and IHR) treat IPv4 and IPv6 as separate ranking universes
    family: int = 4
    seed: int = 0
    #: accepted (validated >= 1) for callers that still set it; the
    #: pipeline runs serially in one process whatever its value
    workers: int = 1
    #: collect per-stage telemetry (spans + metrics) into
    #: ``PipelineResult.trace``; ``"memory"`` additionally captures
    #: tracemalloc peaks per stage. ``False`` keeps the no-op tracer on
    #: every hook (near-zero overhead).
    trace: bool | str = False
    #: sanitized-record store backend: ``"memory"`` keeps the store's
    #: numpy columns in RAM (the default), ``"mmap"`` streams accepted
    #: rows into an on-disk spill and maps it read-only (bounded RSS —
    #: the ``large`` tier's mode). Output bytes are identical across
    #: backends, so neither knob is semantic (see ``SEMANTIC_KNOBS``).
    store_backend: str = "memory"
    #: spill directory for the mmap backend; ``None`` uses a run-scoped
    #: temp dir removed by :meth:`PipelineResult.close`. Pass a real
    #: path to keep the spill (and to resume a torn ingestion).
    spill_dir: str | None = None

    def __post_init__(self) -> None:
        if self.path_diversity < 1:
            raise ValueError("path_diversity must be >= 1")
        if self.family not in (4, 6):
            raise ValueError("family must be 4 or 6")
        if self.trace not in (False, True, "memory"):
            raise ValueError("trace must be False, True, or 'memory'")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        # the same bound every hegemony and CTI entry point enforces
        # (core.hegemony.validate_trim), checked once up front
        if not 0.0 <= self.trim < 0.5:
            raise ValueError(f"trim out of range: {self.trim}")
        if self.store_backend not in ("memory", "mmap"):
            raise ValueError(
                f"store_backend must be 'memory' or 'mmap', "
                f"got {self.store_backend!r}"
            )


class PipelineResult:
    """Everything one pipeline run produced, with memoised rankings."""

    def __init__(
        self,
        world: World,
        config: PipelineConfig,
        outcome: RoutingOutcome,
        ribs: RibSeries,
        geodb: GeoDatabase,
        prefix_geo: PrefixGeolocation,
        vp_geo: VPGeolocator,
        paths: PathSet,
        oracle: RelationshipOracle,
        inferred: InferredRelationships | None,
        tracer: AnyTracer = NULL_TRACER,
        outcomes: "list[RoutingOutcome] | None" = None,
        pool: "WorkerPool | None" = None,
        spill_tmp: str | None = None,
    ) -> None:
        self.world = world
        self.config = config
        self.outcome = outcome
        #: all routing planes (``outcome`` is ``outcomes[0]``); ``pool``
        #: is accepted for callers that still pass one and ignored
        self.outcomes = outcomes if outcomes is not None else [outcome]
        #: run-owned temp spill directory (mmap backend with no
        #: explicit ``spill_dir``); removed by :meth:`close`
        self._spill_tmp = spill_tmp
        self.ribs = ribs
        self.geodb = geodb
        self.prefix_geo = prefix_geo
        self.vp_geo = vp_geo
        self.paths = paths
        self.oracle = oracle
        self.inferred = inferred
        #: the tracer every lazily-computed view/ranking records into
        #: (the shared no-op tracer when telemetry is off)
        self._tracer = tracer
        self._views: dict[tuple[str, str | None], View] = {}
        self._rankings: dict[tuple[str, str | None], Ranking] = {}
        #: the shared path index (repro.perf), built lazily; each view
        #: carries its own cross-metric cache (View.computation)
        self._index: "PathIndex | None" = None

    @property
    def trace(self) -> AnyTracer | None:
        """The collected telemetry (:class:`repro.obs.Tracer`), or
        ``None`` when the run was not traced."""
        return self._tracer if self._tracer.enabled else None

    def close(self) -> None:
        """Remove any run-owned spill temp directory (idempotent; the
        result's cached views and rankings stay usable — on POSIX even
        the already-mapped spill columns stay readable until the
        process exits, but nothing new can be opened from the removed
        directory)."""
        if self._spill_tmp is not None:
            import shutil

            shutil.rmtree(self._spill_tmp, ignore_errors=True)
            self._spill_tmp = None

    # -- views & batch-engine state -----------------------------------------

    def path_index(self) -> "PathIndex":
        """The shared :class:`repro.perf.PathIndex` over the sanitized
        records (built on first use, one O(n) pass)."""
        if self._index is None:
            from repro.perf.index import PathIndex

            with self._tracer.span("index", input=len(self.paths)):
                self._index = PathIndex.from_paths(self.paths)
        return self._index

    def view(self, kind: str, country: str | None = None) -> View:
        """A memoised view: ``"national"``/``"international"``/
        ``"outbound"`` (need a country) or ``"global"``.

        Views come from :meth:`path_index` bucket lookups — O(selected
        records) after the index's one-time O(all records) build — and
        hold the same store positions as a full scan of the records
        would. A view memoises its kernel
        intermediates, so every metric over it shares them.
        """
        country = normalize_country(country)
        key = (kind, country)
        if key in self._views:
            return self._views[key]
        if kind not in VIEW_KINDS:
            raise ValueError(f"unknown view kind {kind!r}")
        if kind != "global":
            self._need_country(country)
        built = self.path_index().view(
            kind, None if kind == "global" else country, tracer=self._tracer,
        )
        self._views[key] = built
        return built

    # -- rankings ---------------------------------------------------------------

    def ranking(self, metric: str, country: str | None = None) -> Ranking:
        """A memoised ranking for one metric (and country, if needed).

        ``metric`` is any registered name (see
        :mod:`repro.core.registry`); the spec decides whether
        ``country`` is required, which view the metric consumes, and
        how it is computed.
        """
        spec = get_spec(metric)
        country = normalize_country(country) if spec.needs_country else None
        key = (spec.name, country)
        if key in self._rankings:
            return self._rankings[key]
        tracer = self._tracer
        with tracer.span("ranking", metric=spec.name, country=country) as span:
            built = self._compute_ranking(spec, country)
            span.set(output=len(built.entries))
            tracer.metrics.histogram("ranking.size").observe(len(built.entries))
            tracer.metrics.counter("ranking.computed").inc()
        self._rankings[key] = built
        return built

    def _compute_ranking(self, spec: MetricSpec, country: str | None) -> Ranking:
        """Assemble the spec's :class:`MetricContext` and delegate —
        the spec (not this method) knows how the metric is computed."""
        code = self._need_country(country) if spec.needs_country else None
        view_country = None if spec.view_kind == "global" else code
        origins: tuple[int, ...] = ()
        if spec.needs_origins and code is not None:
            origins = tuple(self.world.graph.by_registry_country(code))
        return spec.build(MetricContext(
            view=self.view(spec.view_kind, view_country),
            oracle=self.oracle,
            trim=self.config.trim,
            country=code,
            origins=origins,
            tracer=self._tracer,
        ))

    def rank_all(
        self,
        metrics: Iterable[str] | None = None,
        countries: Iterable[str] | None = None,
        store: "ArtifactStore | None" = None,
    ) -> dict[tuple[str, str | None], Ranking]:
        """Batch API: every requested metric for every requested country.

        ``metrics`` defaults to the paper's four country metrics (CCI,
        CCN, AHI, AHN); global metrics in the list are computed once
        under a ``None`` country key. ``countries`` defaults to the
        countries with a qualifying national view
        (:meth:`countries_with_national_view`).

        This is the multi-country sweep entry point: the shared path
        index makes every view a bucket lookup, and each view's
        :class:`~repro.perf.cache.ViewComputation` cache means e.g.
        CCI/AHI/CTI on one country gather its international view's
        suffixes and address totals once between them. Keys come back
        in (metric, country) iteration order; values are the same
        memoised rankings :meth:`ranking` returns.

        ``store`` (a :class:`repro.resilience.ArtifactStore` under
        ``store_key(world, config)``, which holds no request) makes the
        sweep resumable: banked units are read back, computed ones
        banked as they finish, and a resumed — or reordered, or
        narrowed — sweep's output is value-identical to an
        uninterrupted one, wherever the interrupted sweep stopped.

        Duplicate ``(metric, country)`` units are computed (and banked)
        once: repeats in ``metrics``/``countries`` never double-write a
        banked unit.
        """
        spec_list = [get_spec(m) for m in (
            metrics if metrics is not None else paper_metrics()
        )]
        country_list = [normalize_country(c) for c in (
            countries if countries is not None
            else self.countries_with_national_view()
        )]
        units: list[tuple[MetricSpec, str | None]] = []
        seen: set[tuple[str, str | None]] = set()
        for spec in spec_list:
            for country in (country_list if spec.needs_country else [None]):
                unit = (spec.name, country)
                if unit in seen:
                    continue
                seen.add(unit)
                units.append((spec, country))
        rankings: dict[tuple[str, str | None], Ranking] = {}
        with self._tracer.span(
            "sweep", metrics=len(spec_list), countries=len(country_list),
            resumed=store.persisted if store is not None else 0,
        ):
            for spec, country in units:
                unit = (spec.name, country)
                banked = store.lookup(spec, country) if store is not None else None
                if banked is not None:
                    # seeded into the memo table so later ranking()
                    # calls agree with it
                    self._tracer.metrics.counter("resilience.checkpoint_hit").inc()
                    rankings[unit] = self._rankings.setdefault(unit, banked)
                    continue
                ranking = self.ranking(spec.name, country)
                rankings[unit] = ranking
                if store is not None:
                    store.put(spec, country, ranking)
        return rankings

    # -- conveniences ---------------------------------------------------------------

    def country_addresses(self) -> dict[str, int]:
        """Geolocated destination addresses per country."""
        return self.paths.country_addresses()

    def countries_with_national_view(self, min_vps: int = 7) -> list[str]:
        """Countries with at least ``min_vps`` located in-country VPs
        (the paper requires ≥ 7 for stable national rankings)."""
        census = self.vp_geo.census()
        return sorted(code for code, count in census.items() if count >= min_vps)

    def as_name(self, asn: int) -> str:
        """Display name for an AS (empty for unknown)."""
        node = self.world.graph.maybe_node(asn)
        return node.name if node is not None else ""

    @staticmethod
    def _need_country(country: str | None) -> str:
        if country is None:
            raise ValueError("this metric requires a country code")
        return country


@dataclass
class Pipeline:
    """Reusable pipeline bound to a config (call :meth:`run` per world)."""

    config: PipelineConfig = field(default_factory=PipelineConfig)

    def run(
        self,
        world: World,
        tracer: "Tracer | None" = None,
    ) -> PipelineResult:
        """Execute every stage of Figure 6 on one world, serially.

        ``tracer`` overrides the tracer built from ``config.trace``
        (pass a preconfigured :class:`repro.obs.Tracer` to share one
        registry across runs or to tune memory capture).
        """
        config = self.config
        if tracer is None:
            tracer = (
                Tracer(capture_memory=config.trace == "memory")
                if config.trace else NULL_TRACER
            )
        with tracer.span(
            "pipeline", world=world.name, seed=config.seed, family=config.family,
        ):
            with tracer.span("propagate", planes=config.path_diversity):
                outcomes = [
                    propagate_all(
                        world.graph, keep=world.vp_asns(),
                        tiebreak=config.tiebreak, salt=salt, tracer=tracer,
                    )
                    for salt in range(config.path_diversity)
                ]
            outcome = outcomes[0]
            ribs = generate_rib_days(
                world, outcomes, config.rib, config.seed, tracer=tracer
            )
            with tracer.span("geodb"):
                geodb = GeoDatabase.from_world(
                    world, config.geo_noise_rate, config.geo_miss_rate,
                    config.seed + 1, config.family,
                )
            prefix_geo = geolocate_prefixes(
                world.announced_prefixes(), geodb, config.geo_threshold,
                version=config.family, tracer=tracer,
            )
            vp_geo = VPGeolocator(world.collectors)
            graph = world.graph
            filters = dict(
                clique=graph.clique(),
                is_allocated=graph.asn_registry.is_allocated,
                route_servers=graph.route_servers(),
                vp_geo=vp_geo,
                prefix_geo=prefix_geo,
            )
            spill_tmp: str | None = None
            if config.store_backend == "mmap":
                import tempfile

                from repro.perf.spill import FLUSH_EVERY, spill_windows

                spill_dir = config.spill_dir
                if spill_dir is None:
                    spill_dir = spill_tmp = tempfile.mkdtemp(
                        prefix="repro-spill-"
                    )
                paths = spill_windows(
                    ribs.windows(config.family, FLUSH_EVERY),
                    directory=spill_dir, tracer=tracer, **filters,
                )
            else:
                paths = sanitize_windows(
                    ribs.windows(config.family), tracer=tracer, **filters
                )
            inferred: InferredRelationships | None = None
            oracle: RelationshipOracle = graph
            if config.use_inferred_relationships:
                with tracer.span("relationships", input=len(paths)):
                    inferred = infer_relationships(paths.store().record_paths())
                oracle = inferred
        return PipelineResult(
            world, config, outcome, ribs, geodb, prefix_geo, vp_geo, paths,
            oracle, inferred, tracer, outcomes=outcomes, spill_tmp=spill_tmp,
        )


def run_pipeline(
    world: World,
    config: PipelineConfig | None = None,
    tracer: "Tracer | None" = None,
) -> PipelineResult:
    """One-shot convenience wrapper around :class:`Pipeline`."""
    return Pipeline(config or PipelineConfig()).run(world, tracer)
