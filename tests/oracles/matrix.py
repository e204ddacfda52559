"""The test matrix's rows: a :class:`Case` is one input on one store
backend, and each family yields ``(label, production product, oracle
product)`` rows over it, which :func:`check` compares by ``repr``.

``tests/oracles/test_matrix.py`` runs every family on every fixed
input; the kernel files' ``TestParity`` run the rows on generated
record sets (:func:`check_records`), and the ``default`` world's sweep
test on its own pipeline.
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro.core.ahc import AHC_WEIGHTINGS, ahc_ranking
from repro.core.cone import cone_ranking
from repro.core.cti import cti_ranking
from repro.core.hegemony import HEGEMONY_WEIGHTINGS, hegemony_ranking
from repro.core.ranking import Ranking
from repro.core.registry import get_spec, metric_names
from repro.core.views import View
from repro.perf.index import PathIndex

from tests.oracles import cone, cti, hegemony, views
from tests.oracles.inputs import (
    BB,
    CORNERS,
    as_cones,
    as_table,
    build_store,
    corner_relationships,
    path_set,
    tree_oracle,
    tree_records,
)

FAMILIES = ("views", "cone", "cti", "hegemony", "ahc")
TRIMS = (0.0, 0.1, 0.25, 0.49)


class Case:
    """One input on one backend: its path set, relationship oracle,
    the production views whose tables are checked, and its rankings."""

    def __init__(self, paths, relationships, views, *, origins=(),
                 trims=TRIMS, weightings=HEGEMONY_WEIGHTINGS, ahc=None,
                 result=None, sweep=None):
        self.paths = paths
        self.relationships = relationships
        self.views = views
        #: the origins whose local hegemony is checked
        self.origins = origins
        self.trims = trims
        self.weightings = weightings
        #: (country, registered origins) of a hand input's AHC rows
        self.ahc = ahc
        #: a world input's pipeline and its ``rank_all`` result
        self.result = result
        self.sweep = sweep

    def rankings(self, family):
        """``(production ranking, view, weighting, AHC origins)`` for
        every ranking of the family, all at trim 0.1."""
        if self.sweep is not None:
            for (metric, country), ranking in self.sweep.items():
                spec = get_spec(metric)
                if spec.family != family:
                    continue
                weighting, origins = spec.weighting or "addresses", ()
                if family == "ahc":
                    weighting = spec.weighting or "as_count"
                    origins = self.result.world.graph.by_registry_country(country)
                yield (ranking, self.result.view(spec.view_kind, country),
                       weighting, origins)
            return
        for view in self.views:
            if family == "cone":
                yield cone_ranking(view, self.relationships), view, None, ()
            elif family == "cti":
                yield cti_ranking(view, self.relationships, 0.1), view, None, ()
            elif family == "hegemony":
                for weighting in self.weightings:
                    ranking = hegemony_ranking(view, trim=0.1, weighting=weighting)
                    yield ranking, view, weighting, ()
        if family == "ahc" and self.ahc is not None:
            country, origins = self.ahc
            view = PathIndex(self.paths.store()).view("global")
            for weighting in AHC_WEIGHTINGS:
                ranking = ahc_ranking(view, country, origins, 0.1, weighting)
                yield ranking, view, weighting, origins


def entries(ranking):
    return [(e.asn, repr(e.value), repr(e.share)) for e in ranking.entries]


def oracle_ranking(scores, shares=None):
    return entries(Ranking.from_scores("oracle", scores, shares))


# -- the families: (label, production product, oracle product) rows ---------


def views_rows(case):
    for view in case.views:
        kind, _, country = view.name.partition(":")
        if kind == "global":
            expected = views.global_view(case.paths)
        elif kind in views.BUILDERS:
            expected = views.BUILDERS[kind](case.paths, country)
        else:
            continue
        yield view.name, (
            view.name, view.country, view.store is case.paths.store(),
            view.positions.tolist(),
        ), (expected.name, expected.country, True, expected.positions.tolist())


def cone_rows(case):
    relationships = case.relationships
    for view in case.views:
        records = tuple(view.records)
        compute = view.computation()
        yield (f"{view.name} total", compute.total_addresses(),
               cone.total_addresses(records))
        yield (f"{view.name} cones", as_cones(compute.cone_pairs(relationships)),
               cone.customer_cones(records, relationships))
        yield (f"{view.name} addresses",
               as_table(compute.cone_addresses(relationships)),
               cone.cone_addresses(records, relationships))
    for ranking, view, _, _ in case.rankings("cone"):
        records = tuple(view.records)
        total = cone.total_addresses(records)
        addresses = cone.cone_addresses(records, relationships)
        yield ranking.metric, entries(ranking), oracle_ranking(
            {asn: float(n) for asn, n in addresses.items()},
            {asn: n / total for asn, n in addresses.items()} if total else None,
        )


def cti_rows(case):
    relationships = case.relationships
    for view in case.views:
        records = tuple(view.records)
        total = cone.total_addresses(records)
        for trim in case.trims:
            yield (f"{view.name} trim {trim}",
                   as_table(view.computation().cti(relationships, trim)),
                   cti.cti_scores(records, relationships, total, trim))
    for ranking, view, _, _ in case.rankings("cti"):
        records = tuple(view.records)
        scores = cti.cti_scores(
            records, relationships, cone.total_addresses(records), 0.1
        )
        yield ranking.metric, entries(ranking), oracle_ranking(scores, scores)


def hegemony_rows(case):
    for view in case.views:
        records = tuple(view.records)
        compute = view.computation()
        for trim in case.trims:
            for weighting in case.weightings:
                yield (f"{view.name} trim {trim} {weighting}",
                       as_table(compute.hegemony(trim, weighting)),
                       hegemony.hegemony_scores(records, trim, weighting))
            local = compute.local_hegemonies(case.origins, trim)
            for origin in case.origins:
                table = local.get(origin)
                yield (f"{view.name} trim {trim} toward AS{origin}",
                       as_table(table) if table is not None else {},
                       hegemony.local_hegemony(records, origin, trim))
    for ranking, view, weighting, _ in case.rankings("hegemony"):
        scores = hegemony.hegemony_scores(tuple(view.records), 0.1, weighting)
        yield ranking.metric, entries(ranking), oracle_ranking(scores, scores)


def ahc_rows(case):
    for ranking, view, weighting, origins in case.rankings("ahc"):
        scores = hegemony.ahc_scores(tuple(view.records), origins, 0.1, weighting)
        yield f"{ranking.metric} {weighting}", entries(ranking), oracle_ranking(
            scores, scores
        )


FAMILY_ROWS = {
    "views": views_rows,
    "cone": cone_rows,
    "cti": cti_rows,
    "hegemony": hegemony_rows,
    "ahc": ahc_rows,
}


def canon(product):
    """A product in comparable form: tables in key order with each
    value's ``repr``, sets sorted."""
    if isinstance(product, dict):
        return {key: canon(value) for key, value in sorted(product.items())}
    if isinstance(product, (set, frozenset)):
        return sorted(product)
    if isinstance(product, (list, tuple)):
        return [canon(item) for item in product]
    return repr(product)


def check(family, case):
    """Every row of the family on the case; returns how many."""
    rows = list(FAMILY_ROWS[family](case))
    for label, got, expected in rows:
        assert canon(got) == canon(expected), label
    return len(rows)


# -- the inputs ---------------------------------------------------------------


def index_views(store, kinds):
    index = PathIndex(store)
    return [index.view(kind, country) for kind, country in kinds]


def tree_case(backend, directory):
    store = build_store(tree_records(), backend, directory)
    return Case(
        path_set(store), tree_oracle(),
        index_views(store, [
            ("global", None), ("international", "BB"), ("national", "BB"),
            ("outbound", "BB"),
        ]),
        origins=list(range(1, 14)), ahc=("BB", BB),
    )


def records_case(records, relationships, backend, directory, positions=None):
    """A hand-built or generated record list: its international (every
    record: US VPs, NL prefixes) and global views, or one view over
    ``positions``; local hegemony toward every origin and one absent
    AS, AHC over every other one of them."""
    store = build_store(records, backend, directory)
    if positions is None:
        selected = index_views(store, [("international", "NL"), ("global", None)])
    else:
        selected = [View("positions", "NL", store, positions)]
    origins = sorted({rec.origin for rec in records}) + [99]
    return Case(
        path_set(store), relationships, selected, origins=origins,
        ahc=("NL", origins[::2]),
    )


def check_records(families, records, relationships, backend, positions=None):
    """:func:`check` every family on a :func:`records_case` whose
    ``mmap`` store lives in a temporary directory."""
    with tempfile.TemporaryDirectory() as directory:
        case = records_case(records, relationships, backend, directory, positions)
        for family in families:
            check(family, case)


def corner_case(name, backend, directory):
    positions = np.empty(0, dtype=np.int64) if name == "empty_view" else None
    return records_case(
        CORNERS[name], corner_relationships(name), backend, directory, positions
    )


#: the Tables 9-12 sweep of the ``default`` input
SWEEP_METRICS = ("CCI", "CCN", "AHI", "AHN", "CTI")


def world_case(result, source):
    """``small``: the global view and every destination country's
    views at two trims, local hegemony toward the first qualifying
    country's registered origins, and every country metric of the
    qualifying countries; ``default``: the Tables 9-12 sweep over five
    qualifying countries at the pipeline's trim."""
    assert result.config.trim == 0.1
    countries = result.countries_with_national_view()
    if source == "small":
        selected = [result.view("global")] + [
            result.view(kind, country) for country in result.paths.countries()
            for kind in ("international", "national", "outbound")
        ]
        metrics = metric_names(needs_country=True)
        knobs = {
            "trims": (0.0, 0.1),
            "origins": sorted(
                result.world.graph.by_registry_country(countries[0])
            ),
        }
    else:
        countries = countries[:5]
        assert len(countries) == 5
        selected = [
            result.view(kind, country) for country in countries
            for kind in ("international", "national")
        ]
        metrics = SWEEP_METRICS
        knobs = {"trims": (0.1,), "weightings": ("addresses",)}
    return Case(
        result.paths, result.oracle, selected, result=result,
        sweep=result.rank_all(metrics, countries), **knobs,
    )
