"""The named-world catalog.

One place maps the user-facing world names (``small`` / ``default`` /
``paper2021`` / ``paper2023`` / ``large``) to their builders, so every
consumer — the CLI, the watch engine's snapshot resolver, and the
benchmark harness — materializes exactly the same world for the same
name and seed. The paper worlds are seedless (hand-curated); the
generated worlds take the seed through
:func:`repro.topology.generator.generate_world`.

The ``large`` tier is the out-of-core world: its topology is cheap
(default-world AS counts), but its RIB series — five-million-plus
records at the default scale factors — is only meant to be ingested
by ``run_pipeline(..., store_backend="mmap")``, which sanitizes it
window by window into spill files, so peak RSS stays bounded.
"""

from __future__ import annotations

from repro.topology.generator import GeneratorConfig, generate_world
from repro.topology.paper_world import (
    SNAPSHOT_2021,
    SNAPSHOT_2023,
    build_paper_world,
)
from repro.topology.profiles import large_profiles, small_profiles
from repro.topology.world import World

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
    appears downstream, which is why the large tier should run through
    the spill-backed store (``store_backend="mmap"``).
    """
    if kind == "paper2021":
        return build_paper_world(SNAPSHOT_2021)
    if kind == "paper2023":
        return build_paper_world(SNAPSHOT_2023)
    return generate_world(world_config(kind), seed=seed, name=kind)
