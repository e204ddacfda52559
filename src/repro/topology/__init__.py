"""Country-aware AS topology: model, registry, generator, curated worlds."""

from repro.topology.countries import (
    CONTINENTS,
    Country,
    CountryRegistry,
    default_registry,
)
from repro.topology.model import (
    ASGraph,
    ASNode,
    ASRole,
    OriginatedPrefix,
    Relationship,
    TopologyError,
)
from repro.topology.generator import GeneratorConfig, generate_world
from repro.topology.profiles import CountryProfile, default_profiles, small_profiles
from repro.topology.world import World

__all__ = [
    "ASGraph",
    "ASNode",
    "ASRole",
    "CONTINENTS",
    "Country",
    "CountryProfile",
    "CountryRegistry",
    "GeneratorConfig",
    "OriginatedPrefix",
    "Relationship",
    "TopologyError",
    "World",
    "default_profiles",
    "default_registry",
    "generate_world",
    "small_profiles",
]
