"""The one route from a metric name and a country to a ranking.

:meth:`RankingSession.unit` checks a request, one rule and one text
each: :func:`get_spec` rejects an unknown metric, :meth:`~RankingSession.gate`
one the session cannot rank, :meth:`~RankingSession.country_code` an
unknown country (also one given with a global metric, which is then
dropped) and :meth:`MetricSpec.require_country` a missing one; every
surface shows that text. :meth:`~RankingSession.ranking` then
(:meth:`~RankingSession.unit_ranking`) builds the spec's view from a
:class:`~repro.perf.index.PathIndex` over the path set's store and
ranks it with :meth:`MetricSpec.rank`, memoising both.
:class:`~repro.core.pipeline.PipelineResult` and
:class:`~repro.io.replay.ReplaySession` are this class plus what their
input adds: a world's countries and registered origins, or a release's
inferred relationships and replay gate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.ranking import Ranking
from repro.core.registry import MetricSpec, get_spec, normalize_country
from repro.core.sanitize import PathSet, RelationshipOracle
from repro.core.views import View
from repro.obs.trace import NULL_TRACER, AnyTracer

if TYPE_CHECKING:  # perf imports core at runtime; the cycle is type-only
    from repro.perf.index import PathIndex


def path_set_country(code: str, countries: Sequence[str], source: str) -> str:
    """The canonical spelling of ``code`` when it is one of
    ``countries``, the sorted destination countries of the path set
    named ``source``; else the one ``ValueError`` that names the valid
    ones."""
    canonical = normalize_country(code)
    if canonical not in countries:
        raise ValueError(
            f"unknown country {code!r} in {source} "
            f"(valid: {', '.join(countries)})"
        )
    return canonical


class RankingSession:
    """Memoised views and rankings over ``paths`` (called ``source``
    in an error message).

    Telemetry goes to ``tracer``: the ``index`` span (the index build),
    one ``views`` span per view and one ``ranking`` span per computed
    ranking, with the ``ranking.size`` histogram and the
    ``ranking.computed`` counter.
    """

    def __init__(
        self,
        paths: PathSet,
        oracle: RelationshipOracle | None = None,
        trim: float = 0.1,
        tracer: AnyTracer = NULL_TRACER,
        source: str = "the path set",
    ) -> None:
        self.paths = paths
        self.trim = trim
        self.source = source
        self._oracle = oracle
        #: the tracer every lazily-computed view/ranking records into
        #: (the shared no-op tracer when telemetry is off)
        self._tracer = tracer
        #: the shared path index, built lazily; each view carries its
        #: own cross-metric cache (View.computation)
        self._index: "PathIndex | None" = None
        #: the path set's destination countries, read on first check
        self._countries: list[str] | None = None
        self._views: dict[tuple[str, str | None], View] = {}
        self._rankings: dict[tuple[str, str | None], Ranking] = {}

    @property
    def oracle(self) -> RelationshipOracle:
        """The relationship oracle the cone and CTI families read."""
        if self._oracle is None:
            raise ValueError("this session has no relationship oracle")
        return self._oracle

    @classmethod
    def gate(cls, spec: MetricSpec) -> MetricSpec:
        """The replay gate, which a surface can apply before it reads
        any input: every spec passes here."""
        return spec

    def country_code(self, code: str) -> str:
        """A destination country of the path set (``ValueError`` naming
        the valid ones for any other)."""
        if self._countries is None:
            self._countries = self.paths.countries()
        return path_set_country(code, self._countries, self.source)

    def unit(
        self, metric: str, country: str | None = None
    ) -> tuple[MetricSpec, str | None]:
        """A checked request: the spec and the country it ranks
        (``None`` for a global metric), by the module's four rules."""
        spec = self.gate(get_spec(metric))
        code = None if country is None else self.country_code(country)
        return spec, spec.require_country(code)

    def origins(self, country: str) -> tuple[int, ...]:
        """The ASNs registered in ``country`` (none for a path set)."""
        return ()

    def path_index(self) -> "PathIndex":
        """The shared :class:`repro.perf.PathIndex` over the records
        (built on first use, one O(n) pass)."""
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
        would. A view memoises its kernel intermediates, so every
        metric over it shares them.
        """
        country = normalize_country(country)
        key = (kind, country)
        if key not in self._views:
            self._views[key] = self.path_index().view(
                kind, None if kind == "global" else country,
                tracer=self._tracer,
            )
        return self._views[key]

    def ranking(self, metric: str, country: str | None = None) -> Ranking:
        """A memoised ranking for one request, checked by :meth:`unit`.

        ``metric`` is any registered name (see
        :mod:`repro.core.registry`); the spec decides whether
        ``country`` is required, which view the metric consumes, and
        how it is ranked.
        """
        return self.unit_ranking(*self.unit(metric, country))

    def unit_ranking(self, spec: MetricSpec, code: str | None) -> Ranking:
        """The memoised ranking of a request :meth:`unit` has checked
        (here, or for a watch grid on the stream's first snapshot)."""
        key = (spec.name, code)
        if key in self._rankings:
            return self._rankings[key]
        tracer = self._tracer
        with tracer.span("ranking", metric=spec.name, country=code) as span:
            built = self._compute_ranking(spec, code)
            span.set(output=len(built.entries))
            tracer.metrics.histogram("ranking.size").observe(len(built.entries))
            tracer.metrics.counter("ranking.computed").inc()
        self._rankings[key] = built
        return built

    def _compute_ranking(self, spec: MetricSpec, code: str | None) -> Ranking:
        view = self.view(
            spec.view_kind, None if spec.view_kind == "global" else code
        )
        origins = self.origins(code) if code and spec.family == "ahc" else ()
        oracle = self.oracle if spec.needs_oracle else None
        return spec.rank(
            view, code, oracle, self.trim, origins, tracer=self._tracer
        )
