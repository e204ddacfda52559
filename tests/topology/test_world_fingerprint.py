"""The fingerprint must hash exactly the bytes of the reference
``json.dumps`` below — artifact-store keys derive from it, so any
drift silently invalidates every cache."""

import hashlib
import json

import pytest

from repro.topology.catalog import build_world


def materialized_fingerprint(world):
    """The reference implementation: one content dict, one
    ``json.dumps(sort_keys=True)``, one sha256."""
    graph = world.graph
    content = {
        "countries": sorted(world.countries.codes()),
        "ases": [
            [
                node.asn, node.name, node.registry_country, node.role.value,
                [
                    [
                        str(record.prefix), record.country,
                        repr(record.foreign_share),
                        record.foreign_country or "",
                    ]
                    for record in node.prefixes
                ],
            ]
            for node in sorted(graph.nodes(), key=lambda n: n.asn)
        ],
        "edges": sorted(
            [left, right, relationship.value]
            for left, right, relationship in graph.edges()
        ),
        "collectors": [
            [
                collector.name, collector.project.value,
                collector.country, collector.multihop,
                [[vp.ip, vp.asn] for vp in collector.vps],
            ]
            for collector in sorted(world.collectors, key=lambda c: c.name)
        ],
    }
    serialized = json.dumps(
        content, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(serialized).hexdigest()[:16]


@pytest.mark.parametrize("kind", ["small", "default", "paper2021", "paper2023"])
def test_streaming_equals_materialized(kind):
    world = build_world(kind, 0)
    assert world.fingerprint() == materialized_fingerprint(world)


def test_pinned_digests():
    # golden values from before the streaming refactor; these pin the
    # serve artifact-store keyspace
    assert build_world("small", 0).fingerprint() == "d63fe45213bc0303"
    assert build_world("default", 0).fingerprint() == "48ebb304a8b9fb5b"
