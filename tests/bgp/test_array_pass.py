"""The all-origin array pass against the per-origin reference sweep.

``tests/oracles/propagation.py`` is the per-origin reference; every
production route —
``propagate`` and ``propagate_all`` — comes from the array pass. Hypothesis relabels random economies into
public ASNs up to 2^32 - 1 so that the ``hash`` tie-break's 32-bit mix wraps,
and draws the tie-break, the salt, the origins and a keep set (which
prunes the down phase).
"""

from hypothesis import given, settings, strategies as st

from repro.bgp.propagation import (
    TIEBREAKS,
    _adjacency_of,
    keep_closure,
    propagate,
    propagate_all,
)
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.net.asn import is_public_asn
from repro.obs.metrics import Histogram
from repro.obs.trace import Tracer
from repro.topology.catalog import build_world
from repro.topology.model import ASGraph

from tests.bgp.test_propagation_properties import economies
from tests.oracles import propagation as oracle


@st.composite
def problems(draw):
    """``(graph, origins, keep, tiebreak, salt)`` over a random economy
    relabelled into random 32-bit ASNs."""
    economy, _, _ = draw(economies())
    asns = economy.asns()
    labels = draw(st.lists(
        st.integers(min_value=1, max_value=2**32 - 1).filter(is_public_asn),
        min_size=len(asns), max_size=len(asns), unique=True,
    ))
    label = dict(zip(asns, labels))
    graph = ASGraph()
    for asn in asns:
        graph.add_as(label[asn])
    for asn in asns:
        for customer in sorted(economy.customers_of(asn)):
            graph.add_p2c(label[asn], label[customer])
        for peer in sorted(economy.peers_of(asn)):
            if asn < peer:
                graph.add_p2p(label[asn], label[peer])
    origins = draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
    keep = draw(st.none() | st.frozensets(st.sampled_from(labels)))
    tiebreak = draw(st.sampled_from(TIEBREAKS))
    salt = draw(st.integers(min_value=0, max_value=3))
    return graph, origins, keep, tiebreak, salt


def reference(graph, origin, keep, tiebreak, salt):
    """The per-origin sweep's routes at ``keep``."""
    relevant = (
        keep_closure(_adjacency_of(graph), keep) if keep is not None else None
    )
    routes = oracle.propagate(graph, origin, tiebreak, salt, relevant=relevant)
    if keep is not None:
        routes = {asn: route for asn, route in routes.items() if asn in keep}
    return routes


class TestArrayPassParity:
    @settings(max_examples=200, deadline=None)
    @given(problems())
    def test_equals_reference_per_origin(self, problem):
        graph, origins, keep, tiebreak, salt = problem
        outcome = propagate_all(
            graph, origins=origins, keep=keep, tiebreak=tiebreak, salt=salt,
        )
        assert outcome.origins() == sorted(origins)
        for origin in origins:
            routes = reference(graph, origin, keep, tiebreak, salt)
            assert dict(outcome.routes[origin]) == routes

    @settings(max_examples=100, deadline=None)
    @given(problems())
    def test_single_origin_api(self, problem):
        graph, origins, _, tiebreak, salt = problem
        for origin in origins:
            assert propagate(graph, origin, tiebreak, salt) == reference(
                graph, origin, None, tiebreak, salt
            )


class TestAdjacency:
    def test_same_version_snapshot_is_cached(self):
        graph = build_world("small", 0).graph
        assert _adjacency_of(graph) is _adjacency_of(graph)

    def test_mutation_invalidates_snapshot(self):
        graph = build_world("small", 0).graph
        before = _adjacency_of(graph)
        asns = list(graph.asns())
        graph.add_p2p(asns[0], asns[-1])
        after = _adjacency_of(graph)
        assert after is not before
        assert asns[-1] in after.peers[asns[0]]
        assert asns[-1] not in before.peers[asns[0]]

    def test_closure_climbs_provider_chains(self):
        graph = ASGraph()
        for asn in (1, 2, 3, 4):
            graph.add_as(asn)
        graph.add_p2c(1, 2)  # 1 provides 2
        graph.add_p2c(2, 3)  # 2 provides 3
        graph.add_p2c(1, 4)
        closure = keep_closure(_adjacency_of(graph), {3})
        assert closure == frozenset({3, 2, 1})

    def test_peers_are_not_pulled_in(self):
        graph = ASGraph()
        for asn in (1, 2, 3):
            graph.add_as(asn)
        graph.add_p2c(1, 2)
        graph.add_p2p(2, 3)
        assert keep_closure(_adjacency_of(graph), {2}) == frozenset({2, 1})


class TestTelemetry:
    def test_frontier_histogram_matches_reference(self):
        world = build_world("small", 0)
        graph, keep = world.graph, world.vp_asns()
        tracer = Tracer()
        propagate_all(graph, keep=keep, tiebreak="hash", tracer=tracer)
        observed = tracer.metrics.histogram("propagate.frontier")
        expected = Histogram("propagate.frontier")
        adjacency = _adjacency_of(graph)
        relevant = keep_closure(adjacency, keep)
        for origin in sorted(a for a in graph.asns() if graph.node(a).prefixes):
            oracle.propagate(graph, origin, "hash", 0, expected, relevant)
        assert (observed.count, observed.total, observed.min, observed.max) == (
            expected.count, expected.total, expected.min, expected.max
        )

    def test_span_names_and_attributes(self):
        """The values recorded on the small world (seed 0) by the
        per-origin sweep and the per-cell RIB draws."""
        tracer = Tracer()
        run_pipeline(
            build_world("small", 0), PipelineConfig(seed=0), tracer=tracer
        )
        attrs = {
            name: tracer.find(name)[0].attrs for name in tracer.stage_names()
        }
        assert attrs["propagate"] == {"planes": 1}
        assert attrs["propagate.plane"] == {
            "origins": 67, "routes": 1809, "salt": 0, "tiebreak": "hash",
        }
        assert attrs["ribs"] == {
            "days": 5, "missing": 29, "overrides": 82, "paths": 1809,
            "prefixes": 85, "records": 2521, "unstable": 12, "vps": 30,
        }
        assert attrs["ribs.inject"] == {
            "input": 82, "output": 82, "loops": 1, "poisoned": 0,
            "unallocated": 9, "prepended": 55, "route_server": 17,
        }
        for name in ("ribs.paths", "ribs.visibility", "ribs.churn"):
            assert attrs[name] == {}
        assert attrs["sanitize"] == {
            "input": 12253, "output": 9045, "records": 1809,
        }
        assert attrs["sanitize.paths"] == {"input": 1615, "output": 1606}
        assert attrs["sanitize.fates"] == {"input": 2160, "output": 1809}
        assert attrs["sanitize.rows"] == {"input": 1809, "output": 1809}
