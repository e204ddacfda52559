"""The named-world catalog.

One place maps the user-facing world names (``small`` / ``default`` /
``paper2021`` / ``paper2023`` / ``large``) to their builders, so every
consumer — the CLI, the watch engine's snapshot resolver, and the
benchmark harness — materializes exactly the same world for the same
name and seed. The paper worlds are seedless (hand-curated); the
generated worlds take the seed through
:func:`repro.topology.generator.generate_world`.

The ``large`` tier is the out-of-core world: its topology is cheap
(default-world AS counts), but its record stream — five-million-plus
RIB records at the default scale factors — is only meant to be
consumed through :func:`stream_world_records`, never materialized.
Pair it with the pipeline's ``store_backend="mmap"`` spill path to
keep peak RSS bounded.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.topology.generator import (
    GeneratorConfig,
    generate_world,
    iter_world_records,
)
from repro.topology.paper_world import (
    SNAPSHOT_2021,
    SNAPSHOT_2023,
    build_paper_world,
)
from repro.topology.profiles import large_profiles, small_profiles
from repro.topology.world import World

if TYPE_CHECKING:
    from repro.bgp.announcement import RibRecord

WORLD_CHOICES = ("small", "default", "paper2021", "paper2023", "large")


def world_config(kind: str) -> GeneratorConfig | None:
    """The generator config for a named *generated* world (``None``
    for the hand-curated paper snapshots)."""
    if kind == "small":
        return GeneratorConfig(
            profiles=small_profiles(), clique_homes=("US", "US", "SE", "JP")
        )
    if kind == "default":
        return GeneratorConfig()
    if kind == "large":
        return GeneratorConfig(profiles=large_profiles())
    if kind in ("paper2021", "paper2023"):
        return None
    raise ValueError(f"unknown world {kind!r}")


def build_world(kind: str, seed: int) -> World:
    """Materialize one of the named worlds.

    For ``large`` this builds only the *topology* (graph, collectors,
    prefix originations) — still laptop-sized; the record volume
    appears downstream, which is why the large tier should be consumed
    via :func:`stream_world_records` plus the spill-backed store.
    """
    if kind == "paper2021":
        return build_paper_world(SNAPSHOT_2021)
    if kind == "paper2023":
        return build_paper_world(SNAPSHOT_2023)
    return generate_world(world_config(kind), seed=seed, name=kind)


def stream_world_records(
    kind: str, seed: int, *, world: World | None = None, **kwargs: object
) -> "Iterator[RibRecord]":
    """Stream a named generated world's RIB records lazily.

    Thin catalog front-end to
    :func:`repro.topology.generator.iter_world_records`: same record
    stream, byte-for-byte, as materializing the world and running
    propagation + RIB generation by hand, but no stage ever holds the
    record list. This is the only supported way to consume the
    ``large`` tier. Extra keyword arguments (``rib``, ``tiebreak``,
    ``path_diversity``, ``tracer``) pass through.
    """
    config = world_config(kind)
    if config is None:
        raise ValueError(f"world {kind!r} is hand-curated, not streamable")
    if world is None:
        world = generate_world(config, seed=seed, name=kind)
    return iter_world_records(world=world, seed=seed, **kwargs)  # type: ignore[arg-type]
