"""The metric registry: one source of truth for metric dispatch.

The paper's contribution is a *family* of metrics — CCI/CCN/AHI/AHN
plus the baselines CCG/AHG/AHC/CTI and the §7 outbound extensions
CCO/AHO — and the family keeps growing (weighting ablations,
per-origin variants). Every fact about a metric lives here, exactly
once, as a frozen :class:`MetricSpec`:

* which **view kind** it consumes (``global`` / ``national`` /
  ``international`` / ``outbound``) — drives
  :meth:`~repro.core.pipeline.PipelineResult.view` and
  :meth:`~repro.io.replay.ReplaySession.view`;
* whether it **needs a country** — drives CLI validation, memo keys,
  and ``rank_all`` unit enumeration;
* whether it is **replayable** from a released ``paths.jsonl`` —
  drives the replay gate (:meth:`~repro.io.replay.ReplaySession.gate`)
  that ``repro-rank replay``, ``repro-rank watch`` over release files
  and :class:`~repro.io.replay.ReplaySession` apply;
* its **label template** and **checkpoint unit key** — drive ranking
  labels and :class:`~repro.resilience.checkpoint.Checkpoint` units;
* its **family** — :meth:`MetricSpec.rank` dispatches on it to the
  family's ranking function (``cone_ranking``, ``hegemony_ranking``,
  ``cti_ranking``, ``ahc_ranking``), each of which ranks the view
  through its memoised kernel intermediates
  (:meth:`~repro.core.views.View.computation`).

Ablation variants are *data*, not forked code paths: the hegemony
prefix-count weighting (``AHG-P``/``AHI-P``/``AHN-P``) and the AHC
address weighting (``AHC-A``) are ordinary registered specs whose
``weighting`` field :meth:`MetricSpec.rank` passes to the family's
ranking function.

:meth:`~repro.core.session.RankingSession.unit` checks a ranking
request, one rule and one text each: :func:`get_spec` (an unknown
metric), the session's replay gate, its ``country_code`` (an unknown
country) and :meth:`MetricSpec.require_country` (a missing one); the
CLIs, the daemon and the watch engine show that text.

Adding a metric is one :func:`register` call — the pipeline, the
replay session, the CLI, checkpointing, and the lint rule R008 all
pick it up from here (see README "Adding a metric").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.core.ahc import ahc_ranking
from repro.core.cone import cone_ranking
from repro.core.cti import cti_ranking
from repro.core.hegemony import hegemony_ranking
from repro.core.ranking import Ranking
from repro.core.sanitize import RelationshipOracle
from repro.core.views import View
from repro.obs.trace import NULL_TRACER, AnyTracer
from repro.topology.countries import normalize_country  # re-exported

#: the view vocabulary shared by the pipeline and the replay session
VIEW_KINDS = ("global", "national", "international", "outbound")

#: the metric families :meth:`MetricSpec.rank` dispatches on
FAMILIES = ("cone", "hegemony", "cti", "ahc")


@dataclass(frozen=True, slots=True)
class MetricSpec:
    """Everything the system knows about one metric, in one record."""

    #: canonical (upper-case) metric name, the CLI-facing identifier
    name: str
    #: the metric family ranking it (one of :data:`FAMILIES`)
    family: str
    #: which view the metric consumes (one of :data:`VIEW_KINDS`)
    view_kind: str
    #: whether a country code is required (AHC is registered-country
    #: scoped yet consumes the global view, so this is independent of
    #: ``view_kind``)
    needs_country: bool
    #: whether the metric can be recomputed from a released
    #: ``paths.jsonl`` alone (AHC needs registration countries and CTI
    #: is pinned non-replayable; AH metrics replay exactly, CC metrics
    #: need an oracle — supplied or inferred from the released paths)
    replayable: bool
    #: ranking label template (``{name}`` / ``{country}`` placeholders)
    label: str
    #: one-line description (CLI help and docs are derived from it)
    description: str
    #: variant knob: the weighting scheme :meth:`rank` passes to the
    #: family's ranking function (``None`` = the family's default)
    weighting: str | None = None
    #: classification tags (``paper`` / ``baseline`` / ``outbound`` /
    #: ``variant``) consumed by the analysis and export layers
    tags: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.name != canonical_name(self.name):
            raise ValueError(f"metric name must be canonical: {self.name!r}")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown metric family {self.family!r}")
        if self.view_kind not in VIEW_KINDS:
            raise ValueError(f"unknown view kind {self.view_kind!r}")

    @property
    def needs_oracle(self) -> bool:
        """Whether :meth:`rank` reads the relationship oracle (the cone
        and CTI families; replay skips inference for the others)."""
        return self.family in ("cone", "cti")

    def label_for(self, country: str | None) -> str:
        """The ranking label (``"AHN:AU"``, ``"CCG"``)."""
        return self.label.format(name=self.name, country=country)

    def unit_key(self, country: str | None) -> str:
        """The checkpoint unit key for one sweep ranking (stable
        across releases: resumable files depend on it)."""
        return f"ranking:{self.name}:{country if country is not None else '<global>'}"

    def require_country(self, country: str | None) -> str | None:
        """The country this metric ranks: global metrics drop it,
        country metrics require it."""
        if not self.needs_country:
            return None
        if country is None:
            raise ValueError(f"metric {self.name} requires a country code")
        return country

    def rank(
        self,
        view: View,
        country: str | None,
        oracle: RelationshipOracle | None,
        trim: float,
        origins: Iterable[int] = (),
        tracer: AnyTracer = NULL_TRACER,
    ) -> Ranking:
        """This metric's ranking of ``view``: the family's ranking
        function, given the spec's label and ``weighting``.

        ``oracle`` may be ``None`` unless :attr:`needs_oracle`;
        ``origins`` are the ASNs registered in ``country`` (read by the
        AHC family only, as its destination selector).
        """
        if self.family == "hegemony":
            return hegemony_ranking(
                view, self.label_for(country), trim,
                weighting=self.weighting or "addresses", tracer=tracer,
            )
        if self.family == "ahc":
            code = self.require_country(country)
            assert code is not None  # require_country raised otherwise
            return ahc_ranking(
                view, code, origins, trim,
                weighting=self.weighting or "as_count",
                tracer=tracer, metric=self.label_for(code),
            )
        if oracle is None:
            raise ValueError(f"{self.name} needs a relationship oracle")
        if self.family == "cone":
            return cone_ranking(
                view, oracle, self.label_for(country), tracer=tracer,
            )
        return cti_ranking(view, oracle, trim, tracer=tracer)


def canonical_name(name: str) -> str:
    """The canonical spelling of a metric name argument."""
    return name.strip().upper()


def metric_units(
    specs: Iterable[MetricSpec], countries: Sequence[str]
) -> list[tuple[MetricSpec, str | None]]:
    """The (spec, country) units of a metric × country grid, in
    (metric, country) order: a global metric once, under ``None``, and
    a repeated unit only where it first appears."""
    units: list[tuple[MetricSpec, str | None]] = []
    seen: set[tuple[str, str | None]] = set()
    for spec in specs:
        for country in (countries if spec.needs_country else (None,)):
            if (spec.name, country) not in seen:
                seen.add((spec.name, country))
                units.append((spec, country))
    return units


# -- the registry -------------------------------------------------------------

#: every registered metric, keyed by canonical name, in registration
#: order (the order CLI help, sweeps, and exports present them in)
METRICS: dict[str, MetricSpec] = {}


def register(spec: MetricSpec) -> MetricSpec:
    """Add a metric to the registry (the one-registration extension
    point). Raises on a duplicate name — specs are immutable facts."""
    if spec.name in METRICS:
        raise ValueError(f"metric {spec.name!r} is already registered")
    METRICS[spec.name] = spec
    return spec


def maybe_spec(name: str) -> MetricSpec | None:
    """The spec for a metric name (any case), or ``None``."""
    return METRICS.get(canonical_name(name))


def get_spec(name: str) -> MetricSpec:
    """The spec for a metric name (any case); ``ValueError`` naming
    every registered metric for an unknown one."""
    spec = maybe_spec(name)
    if spec is None:
        raise ValueError(
            f"unknown metric {name!r} (valid: {', '.join(metric_names())})"
        )
    return spec


def specs(
    *,
    needs_country: bool | None = None,
    replayable: bool | None = None,
    tag: str | None = None,
    view_kind: str | None = None,
) -> tuple[MetricSpec, ...]:
    """Registered specs, filtered, in registration order."""

    def keep(spec: MetricSpec) -> bool:
        return (
            (needs_country is None or spec.needs_country == needs_country)
            and (replayable is None or spec.replayable == replayable)
            and (tag is None or tag in spec.tags)
            and (view_kind is None or spec.view_kind == view_kind)
        )

    return tuple(spec for spec in METRICS.values() if keep(spec))


def metric_names(
    *,
    needs_country: bool | None = None,
    replayable: bool | None = None,
    tag: str | None = None,
    view_kind: str | None = None,
) -> tuple[str, ...]:
    """Registered metric names, filtered, in registration order."""
    return tuple(spec.name for spec in specs(
        needs_country=needs_country, replayable=replayable,
        tag=tag, view_kind=view_kind,
    ))


def paper_metrics(view_kind: str | None = None) -> tuple[str, ...]:
    """The paper's four country metrics (optionally one view side)."""
    return metric_names(tag="paper", view_kind=view_kind)


def iter_specs() -> Iterator[MetricSpec]:
    """All registered specs in registration order."""
    return iter(METRICS.values())


# -- the built-in catalog -----------------------------------------------------
#
# Registration order is the canonical presentation order: the paper's
# four country metrics, then the baselines and §7 extensions, then the
# global baselines, then the ablation variants.

register(MetricSpec(
    name="CCI", family="cone", view_kind="international",
    needs_country=True, replayable=True, label="{name}:{country}",
    description="customer-cone addresses over the international view",
    tags=frozenset({"paper"}),
))
register(MetricSpec(
    name="CCN", family="cone", view_kind="national",
    needs_country=True, replayable=True, label="{name}:{country}",
    description="customer-cone addresses over the national view",
    tags=frozenset({"paper"}),
))
register(MetricSpec(
    name="AHI", family="hegemony", view_kind="international",
    needs_country=True, replayable=True, label="{name}:{country}",
    description="AS hegemony over the international view",
    tags=frozenset({"paper"}),
))
register(MetricSpec(
    name="AHN", family="hegemony", view_kind="national",
    needs_country=True, replayable=True, label="{name}:{country}",
    description="AS hegemony over the national view",
    tags=frozenset({"paper"}),
))
register(MetricSpec(
    name="AHC", family="ahc", view_kind="global",
    needs_country=True, replayable=False, label="{name}:{country}",
    description="IHR's country hegemony baseline (registered-origin "
                "average; release carries no registration countries)",
    tags=frozenset({"baseline"}),
))
register(MetricSpec(
    name="CTI", family="cti", view_kind="international",
    needs_country=True, replayable=False, label="{name}:{country}",
    description="country-level transit influence baseline",
    tags=frozenset({"baseline"}),
))
register(MetricSpec(
    name="CCO", family="cone", view_kind="outbound",
    needs_country=True, replayable=True, label="{name}:{country}",
    description="customer-cone addresses over the outbound view (§7)",
    tags=frozenset({"outbound"}),
))
register(MetricSpec(
    name="AHO", family="hegemony", view_kind="outbound",
    needs_country=True, replayable=True, label="{name}:{country}",
    description="AS hegemony over the outbound view (§7)",
    tags=frozenset({"outbound"}),
))
register(MetricSpec(
    name="CCG", family="cone", view_kind="global",
    needs_country=False, replayable=True, label="{name}",
    description="global customer-cone baseline",
    tags=frozenset({"baseline"}),
))
register(MetricSpec(
    name="AHG", family="hegemony", view_kind="global",
    needs_country=False, replayable=True, label="{name}",
    description="global AS hegemony baseline",
    tags=frozenset({"baseline"}),
))

# Ablation variants: the knobs that used to hide behind function
# parameters, registered as first-class metrics (a variant is data).
register(MetricSpec(
    name="AHG-P", family="hegemony", view_kind="global",
    needs_country=False, replayable=True, label="{name}",
    description="AHG with unweighted (per-prefix) path counting",
    weighting="prefixes", tags=frozenset({"variant"}),
))
register(MetricSpec(
    name="AHI-P", family="hegemony", view_kind="international",
    needs_country=True, replayable=True, label="{name}:{country}",
    description="AHI with unweighted (per-prefix) path counting",
    weighting="prefixes", tags=frozenset({"variant"}),
))
register(MetricSpec(
    name="AHN-P", family="hegemony", view_kind="national",
    needs_country=True, replayable=True, label="{name}:{country}",
    description="AHN with unweighted (per-prefix) path counting",
    weighting="prefixes", tags=frozenset({"variant"}),
))
register(MetricSpec(
    name="AHC-A", family="ahc", view_kind="global",
    needs_country=True, replayable=False, label="{name}:{country}",
    description="AHC with address-footprint origin weighting (IHR's "
                "user-population scheme)",
    weighting="addresses", tags=frozenset({"variant"}),
))
