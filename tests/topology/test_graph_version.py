"""Every ``ASGraph`` mutation bumps the version its memos are keyed on.

``ASGraph.p2c_edges()`` and the propagation adjacency snapshot
(``repro.bgp.propagation._adjacency_of``) are memoised against
``ASGraph.version``. A mutator that changes the nodes or the provider,
customer or peer sets without bumping the version would hand out the
stale memo forever. Random sequences of mutations — valid calls and
rejected ones — read both memos after every step and compare them with
those of a freshly built copy, whose memos start empty.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.propagation import _adjacency_of
from repro.topology.model import ASGraph, TopologyError

#: a few public ASNs, so most edge calls land between present ASes,
#: plus a private one that ``add_as`` rejects
PUBLIC = (1, 2, 3, 4)
ASNS = st.sampled_from((*PUBLIC, 64512))
MUTATORS = ("add_as", "remove_as", "add_p2c", "add_p2p", "remove_edge")
#: (mutator, left, right); the node mutators take ``left`` only
STEPS = st.tuples(st.sampled_from(MUTATORS), ASNS, ASNS)


def memos(graph):
    """Both version-keyed memos of ``graph``, as comparable values."""
    adjacency = _adjacency_of(graph)
    return (
        graph.p2c_edges(),
        adjacency.asns,
        adjacency.providers,
        adjacency.customers,
        adjacency.peers,
        adjacency.index.tolist(),
        [
            [column.tolist() for column in csr]
            for csr in (adjacency.up, adjacency.across, adjacency.down)
        ],
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(STEPS, max_size=30))
def test_memos_follow_every_mutation(steps):
    graph = ASGraph()
    for asn in PUBLIC:
        graph.add_as(asn)
    for method, left, right in steps:
        args = (left,) if method.endswith("_as") else (left, right)
        try:
            getattr(graph, method)(*args)
        except TopologyError:
            pass  # a rejected call must leave state and memos in step
        assert memos(graph) == memos(graph.copy()), (method, args)

