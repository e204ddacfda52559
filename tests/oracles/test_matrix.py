"""Every production product against its oracle, compared by ``repr``.

Rows are family × input × store backend (``memory``, ``mmap``).

Families, each a production product and the ``tests/oracles`` module
that defines it:

* ``views`` — :class:`~repro.perf.index.PathIndex` lookups against
  full scans (:mod:`tests.oracles.views`): name, country, store and
  positions;
* ``cone`` — a view's address total, cone pairs, cone addresses and CC
  ranking (:mod:`tests.oracles.cone`);
* ``cti`` — CTI tables at every trim and the CTI ranking
  (:mod:`tests.oracles.cti`);
* ``hegemony`` — hegemony tables at every trim and weighting, local
  hegemony toward every origin and the AH ranking
  (:mod:`tests.oracles.hegemony`);
* ``ahc`` — AHC under both origin weightings.

Inputs: the bgpsim 13-AS tree; the corner cases of
:data:`tests.oracles.inputs.CORNERS`; the ``small``
world's pipeline views; and the ``default`` world's indexed sweep
(``rank_all``'s rankings over five countries). The ``small`` world
also runs every family over a third store, ``stream``, built record
by record (``ribs.records()`` → ``sanitize_stream`` →
``SpillWriter.add`` / ``maybe_checkpoint`` / ``seal`` →
``open_spill``): the way the traced spill run fills its store, where
the pipeline fills its stores a window at a time. Hypothesis record sets
(MOAS, conflicting counts, wide ASNs, position subsets, oracles with
and without ``p2c_edges()``) run through the same rows on both
backends in ``TestParity`` of ``tests/perf/test_cone_kernel.py``
(views, cone, CTI) and ``tests/perf/test_hegemony_kernel.py``
(hegemony, AHC).

A world input ranks through ``rank_all``, every other input through
the ranking functions; both read the view's memoised kernel
intermediates, whose tables are compared first. The rows themselves
are built in :mod:`tests.oracles.matrix`.
"""

from __future__ import annotations

import tempfile

import pytest

from repro.core.pipeline import PipelineConfig, PipelineResult, run_pipeline
from repro.core.sanitize import FilterReport, sanitize_stream
from repro.perf.spill import SpillWriter, open_spill
from repro.topology.catalog import build_world

from tests.oracles.inputs import BACKENDS, CORNERS
from tests.oracles.matrix import FAMILIES, check, corner_case, tree_case, world_case


def streamed(result, directory):
    """``result`` over the store its RIB records build one by one,
    spilled to ``directory`` with a checkpoint every 512 accepted
    records (and removed by ``close``)."""
    graph = result.world.graph
    family = result.config.family
    pulled = 0

    def records():
        nonlocal pulled
        for record in result.ribs.records():
            if record.prefix.version == family:
                pulled += 1
                yield record

    report = FilterReport()
    writer = SpillWriter(directory, flush_every=512)
    writer.prepare(report)
    for accepted in sanitize_stream(
        records(), clique=graph.clique(),
        is_allocated=graph.asn_registry.is_allocated,
        route_servers=graph.route_servers(), vp_geo=result.vp_geo,
        prefix_geo=result.prefix_geo, report=report,
    ):
        writer.add(accepted)
        writer.maybe_checkpoint(pulled, report)
    writer.seal(pulled, report)
    return PipelineResult(
        result.world, result.config, result.outcome, result.ribs,
        result.geodb, result.prefix_geo, result.vp_geo, open_spill(directory),
        result.oracle, result.inferred, outcomes=result.outcomes,
        spill_tmp=directory,
    )


@pytest.fixture(scope="module")
def worlds():
    """The pipelines of the world inputs, one per (world, backend),
    closed when the module is done; backend ``stream`` is the memory
    run's records streamed into a spill."""
    built = {}

    def get(name, backend):
        if (name, backend) not in built:
            if backend == "stream":
                built[name, backend] = streamed(
                    get(name, "memory"), tempfile.mkdtemp(prefix="stream-")
                )
            else:
                world = build_world(name, 42 if name == "default" else 0)
                built[name, backend] = run_pipeline(
                    world, PipelineConfig(store_backend=backend)
                )
        return built[name, backend]

    yield get
    for result in built.values():
        result.close()


#: the (family, input) rows; ``empty_view`` has no index view, and the
#: Tables 9-12 sweep of ``default`` has no AHC
MATRIX = [
    (family, source)
    for family in FAMILIES
    for source in ("tree", *CORNERS, "small", "default")
    if (family, source) not in {("views", "empty_view"), ("ahc", "default")}
]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("family,source", MATRIX)
def test_matrix(family, source, backend, worlds, tmp_path):
    if source == "tree":
        case = tree_case(backend, tmp_path)
    elif source in CORNERS:
        case = corner_case(source, backend, tmp_path)
    else:
        case = world_case(worlds(source, backend), source)
    assert check(family, case) > 0


@pytest.mark.parametrize("family", FAMILIES)
def test_matrix_streamed(family, worlds):
    """The ``small`` world's rows over the store built record by
    record."""
    assert check(family, world_case(worlds("small", "stream"), "small")) > 0
