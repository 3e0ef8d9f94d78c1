"""Unit tests for repro.geometry.grid."""

import numpy as np
import pytest

from repro.geometry.grid import (
    hash_rows,
    random_grid_shift,
    separation_probability_bound,
)


class TestHashRows:
    def test_identical_rows_same_key(self):
        lattice = np.array([[1, 2, 3], [1, 2, 3], [4, 5, 6]])
        keys = hash_rows(lattice)
        assert keys[0] == keys[1]
        assert keys[0] != keys[2]

    def test_negative_coordinates_supported(self):
        lattice = np.array([[-1, -2], [-1, -2], [0, 0]])
        keys = hash_rows(lattice)
        assert keys[0] == keys[1]
        assert keys[0] != keys[2]

    def test_distinct_rows_distinct_keys(self, rng):
        lattice = rng.integers(-1000, 1000, size=(500, 4))
        unique_rows = np.unique(lattice, axis=0).shape[0]
        unique_keys = np.unique(hash_rows(lattice)).shape[0]
        assert unique_keys == unique_rows


class TestRandomGridShift:
    def test_shape_and_range(self):
        shift = random_grid_shift(5, 10.0, seed=0)
        assert shift.shape == (5,)
        assert (shift >= 0).all() and (shift <= 10.0).all()

    def test_same_scalar_on_every_coordinate(self):
        shift = random_grid_shift(4, 3.0, seed=1)
        assert np.unique(shift).size == 1

    def test_invalid_side_raises(self):
        with pytest.raises(ValueError):
            random_grid_shift(3, 0.0)


class TestSeparationProbability:
    def test_lemma_bound_holds_empirically(self, rng):
        # Lemma 4.3: Pr[p, q separated] <= sqrt(d) ||p - q|| / side.
        p = np.array([0.0, 0.0])
        q = np.array([0.3, 0.4])  # distance 0.5
        side = 5.0
        bound = separation_probability_bound(p, q, side)
        separated = 0
        trials = 2000
        for trial in range(trials):
            shift = random_grid_shift(2, side, seed=trial)
            cells = np.floor((np.stack([p, q]) - shift) / side)
            separated += int(not np.array_equal(cells[0], cells[1]))
        empirical = separated / trials
        assert empirical <= bound + 0.03

    def test_bound_capped_at_one(self):
        assert separation_probability_bound(np.zeros(2), np.ones(2) * 100, 1.0) == 1.0
