"""Unit tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import as_generator, random_seed_from, weighted_index_draw


class TestAsGenerator:
    def test_none_returns_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_is_reproducible(self):
        first = as_generator(42).integers(0, 1_000_000, size=10)
        second = as_generator(42).integers(0, 1_000_000, size=10)
        np.testing.assert_array_equal(first, second)

    def test_different_seeds_differ(self):
        first = as_generator(1).integers(0, 1_000_000, size=10)
        second = as_generator(2).integers(0, 1_000_000, size=10)
        assert not np.array_equal(first, second)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert as_generator(generator) is generator

    def test_seed_sequence_accepted(self):
        sequence = np.random.SeedSequence(7)
        assert isinstance(as_generator(sequence), np.random.Generator)

    def test_invalid_type_raises(self):
        with pytest.raises(TypeError):
            as_generator("not-a-seed")


class TestSamplingHelpers:
    def test_random_seed_from_is_int(self):
        seed = random_seed_from(np.random.default_rng(0))
        assert isinstance(seed, int)
        assert seed >= 0


class TestWeightedIndexDraw:
    def test_matches_probabilities(self):
        generator = np.random.default_rng(0)
        mass = np.array([1.0, 3.0, 0.0, 6.0])
        counts = np.zeros(4)
        for _ in range(20_000):
            counts[weighted_index_draw(generator, mass)] += 1
        empirical = counts / counts.sum()
        expected = mass / mass.sum()
        np.testing.assert_allclose(empirical, expected, atol=0.02)

    def test_zero_mass_entries_never_drawn(self):
        generator = np.random.default_rng(1)
        mass = np.array([0.0, 1.0, 0.0, 0.0, 2.0, 0.0])
        for _ in range(2_000):
            assert weighted_index_draw(generator, mass) in (1, 4)

    def test_degenerate_total_returns_sentinel(self):
        generator = np.random.default_rng(2)
        assert weighted_index_draw(generator, np.zeros(5)) == -1
        assert weighted_index_draw(generator, np.array([])) == -1
        assert weighted_index_draw(generator, np.array([np.inf, 1.0])) == -1

    def test_single_positive_entry(self):
        generator = np.random.default_rng(3)
        assert weighted_index_draw(generator, np.array([0.0, 0.0, 5.0])) == 2

    def test_reproducible_with_same_seed(self):
        mass = np.arange(1.0, 11.0)
        draws_a = [weighted_index_draw(np.random.default_rng(7), mass) for _ in range(1)]
        draws_b = [weighted_index_draw(np.random.default_rng(7), mass) for _ in range(1)]
        assert draws_a == draws_b
