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
(``rank_all``'s rankings over five countries). Hypothesis record sets
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

import pytest

from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.topology.catalog import build_world

from tests.oracles.inputs import BACKENDS, CORNERS
from tests.oracles.matrix import FAMILIES, check, corner_case, tree_case, world_case


@pytest.fixture(scope="module")
def worlds():
    """The pipelines of the world inputs, one per (world, backend),
    closed when the module is done."""
    built = {}

    def get(name, backend):
        if (name, backend) not in built:
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

