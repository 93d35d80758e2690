"""Utilities: seeding, serialization, logging."""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.utils import (
    SeedSequence,
    get_logger,
    load_npz,
    new_rng,
    save_npz,
    spawn_rngs,
)


class TestNewRng:
    def test_int_seed_deterministic(self):
        assert new_rng(5).random() == new_rng(5).random()

    def test_none_uses_default_seed(self):
        assert new_rng(None).random() == new_rng(None).random()

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert new_rng(gen) is gen


class TestSpawnRngs:
    def test_count_and_independence(self):
        rngs = spawn_rngs(0, 3)
        assert len(rngs) == 3
        values = [r.random() for r in rngs]
        assert len(set(values)) == 3

    def test_deterministic(self):
        a = [r.random() for r in spawn_rngs(1, 2)]
        b = [r.random() for r in spawn_rngs(1, 2)]
        assert a == b

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestSeedSequence:
    def test_child_seed_stable(self):
        seeds = SeedSequence(42)
        assert seeds.child_seed("train", 1.0, 48) == seeds.child_seed("train", 1.0, 48)

    def test_child_seed_distinguishes_keys(self):
        seeds = SeedSequence(42)
        assert seeds.child_seed("train", 1.0, 48) != seeds.child_seed("train", 1.0, 56)
        assert seeds.child_seed("train", 1.0, 48) != seeds.child_seed("attack", 1.0, 48)

    def test_child_seed_depends_on_root(self):
        assert SeedSequence(1).child_seed("x") != SeedSequence(2).child_seed("x")

    def test_float_keys_stable(self):
        seeds = SeedSequence(0)
        assert seeds.child_seed(0.25) == seeds.child_seed(0.25)
        assert seeds.child_seed(0.25) != seeds.child_seed(0.75)

    def test_rng_for(self):
        seeds = SeedSequence(0)
        assert seeds.rng_for("a").random() == seeds.rng_for("a").random()

    def test_seed_property(self):
        assert SeedSequence(7).seed == 7

    def test_tuple_key_normalization(self):
        seeds = SeedSequence(0)
        assert seeds.child_seed(("a", 1.5)) == seeds.child_seed(("a", 1.5))


class TestNpz:
    def test_roundtrip_with_metadata(self, tmp_path):
        arrays = {"w": np.arange(6).reshape(2, 3).astype(np.float32)}
        path = save_npz(tmp_path / "x.npz", arrays, {"epoch": 3})
        loaded, meta = load_npz(path)
        np.testing.assert_array_equal(loaded["w"], arrays["w"])
        assert meta == {"epoch": 3}

    def test_roundtrip_without_metadata(self, tmp_path):
        path = save_npz(tmp_path / "y.npz", {"a": np.ones(2)})
        loaded, meta = load_npz(path)
        assert meta is None
        assert set(loaded) == {"a"}

    def test_reserved_key_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_npz(tmp_path / "z.npz", {"__repro_metadata__": np.ones(1)})

    def test_creates_parent_dirs(self, tmp_path):
        path = save_npz(tmp_path / "deep" / "nested" / "f.npz", {"a": np.ones(1)})
        assert path.exists()


class TestLogging:
    def test_namespaced_logger(self):
        logger = get_logger("robustness")
        assert logger.name == "repro.robustness"

    def test_full_name_passthrough(self):
        assert get_logger("repro.custom").name == "repro.custom"

    def test_parent_has_handler(self):
        get_logger("anything")
        assert logging.getLogger("repro").handlers
