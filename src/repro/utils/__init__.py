"""Shared utilities: seeding, logging, serialization, dispatch."""

from repro.utils.dispatch import has_trusted_twin
from repro.utils.logging import get_logger
from repro.utils.seeding import SeedSequence, new_rng, spawn_rngs
from repro.utils.serialization import load_npz, save_npz

__all__ = [
    "SeedSequence",
    "get_logger",
    "has_trusted_twin",
    "load_npz",
    "new_rng",
    "save_npz",
    "spawn_rngs",
]
