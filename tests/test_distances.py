"""Unit tests for repro.geometry.distances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.distances import (
    diameter_upper_bound,
    point_to_set_distances,
    squared_point_to_set_distances,
    update_nearest_with_new_center,
)


class TestPointToSetDistances:
    def test_matches_bruteforce(self, rng):
        points = rng.normal(size=(50, 6))
        centers = rng.normal(size=(7, 6))
        expected_full = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
        expected_distance = expected_full.min(axis=1)
        expected_assignment = expected_full.argmin(axis=1)
        distances, assignment = point_to_set_distances(points, centers)
        np.testing.assert_allclose(distances, expected_distance, atol=1e-8)
        np.testing.assert_array_equal(assignment, expected_assignment)

    def test_chunked_computation_matches_unchunked(self, rng):
        points = rng.normal(size=(100, 4))
        centers = rng.normal(size=(5, 4))
        full, a_full = squared_point_to_set_distances(points, centers)
        chunked, a_chunked = squared_point_to_set_distances(points, centers, chunk_elements=16)
        np.testing.assert_allclose(full, chunked)
        np.testing.assert_array_equal(a_full, a_chunked)

    def test_single_center(self, rng):
        points = rng.normal(size=(10, 3))
        center = np.zeros((1, 3))
        squared, assignment = squared_point_to_set_distances(points, center)
        np.testing.assert_allclose(squared, np.einsum("ij,ij->i", points, points))
        assert (assignment == 0).all()

    def test_empty_centers_raise(self, rng):
        with pytest.raises(ValueError):
            squared_point_to_set_distances(rng.normal(size=(5, 2)), np.empty((0, 2)))


def _difference_oracle(points, centers):
    """Every squared distance by difference; the lowest-index nearest."""
    columns = []
    for center in centers:
        delta = points - center
        columns.append(np.einsum("ij,ij->i", delta, delta))
    squared = np.stack(columns, axis=1)
    return squared.min(axis=1), squared.argmin(axis=1)


def _assert_exact(points, centers, **options):
    squared, assignment = squared_point_to_set_distances(points, centers, **options)
    expected_squared, expected_assignment = _difference_oracle(points, centers)
    np.testing.assert_array_equal(assignment, expected_assignment)
    np.testing.assert_array_equal(squared, expected_squared)
    return squared, assignment


class TestExactNearestCenter:
    """The primitive returns the nearest centre by difference, ties to the
    lowest index, wherever the data sits."""

    def test_far_from_origin_noise(self):
        # An expansion on the raw coordinates assigns 1550 of these 2000
        # points wrongly, at 0.17 of the exact cost.
        points = 1e8 + np.random.default_rng(0).normal(size=(2000, 5))
        _assert_exact(points, points[:10])

    def test_two_unit_clusters_far_apart(self):
        # Translating by the centres' mean alone leaves a 1e8 spread: 670 of
        # 2000 are wrong without the by-difference re-decision.
        rng = np.random.default_rng(1)
        points = np.concatenate(
            [rng.normal(size=(1000, 5)), 1e8 + rng.normal(size=(1000, 5))]
        )
        _assert_exact(points, np.concatenate([points[:5], points[1000:1005]]))

    def test_offset_matches_the_origin_run(self):
        far = 1e8 + np.random.default_rng(2).normal(size=(1500, 4))
        near = far - 1e8  # exact: the same lattice values at the origin
        squared_far, assignment_far = squared_point_to_set_distances(far, far[:12])
        squared_near, assignment_near = squared_point_to_set_distances(near, near[:12])
        np.testing.assert_array_equal(assignment_far, assignment_near)
        np.testing.assert_array_equal(squared_far, squared_near)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 10, 13, 16, 33])
    def test_distances_equal_a_whole_array_einsum(self, d):
        rng = np.random.default_rng(d)
        points = rng.normal(size=(400, d)) * 3.0
        centers = rng.normal(size=(9, d))
        squared, assignment = _assert_exact(points, centers)
        delta = points - centers[assignment]
        np.testing.assert_array_equal(squared, np.einsum("ij,ij->i", delta, delta))

    def test_duplicate_centers_go_to_the_lowest_index(self, rng):
        points = rng.normal(size=(300, 3))
        centers = rng.normal(size=(6, 3))
        _, assignment = _assert_exact(points, np.concatenate([centers, centers]))
        assert assignment.max() < 6

    def test_points_on_centers_are_at_distance_zero(self, rng):
        points = 1e6 + rng.normal(size=(200, 4))
        squared, assignment = _assert_exact(points, points[::20])
        np.testing.assert_array_equal(assignment[::20], np.arange(10))
        assert (squared[::20] == 0.0).all()

    def test_tiny_blocks_match_one_block(self):
        points = 1e9 + np.random.default_rng(3).normal(size=(500, 5))
        centers = points[::25]
        whole = _assert_exact(points, centers)
        # 64 entries: three rows per block, one re-decided row per batch.
        chunked = squared_point_to_set_distances(points, centers, chunk_elements=64)
        np.testing.assert_array_equal(whole[0], chunked[0])
        np.testing.assert_array_equal(whole[1], chunked[1])

    def test_overflowing_expansion_decides_by_difference(self, rng):
        # |p - mu|^2 overflows to inf, so the expansion cannot rank anything;
        # the by-difference distances of neighbours stay finite.
        points = 1e154 * rng.normal(size=(60, 3)) + rng.normal(size=(60, 3)) * 1e152
        centers = points[:5]
        with np.errstate(over="ignore", invalid="ignore"):
            _assert_exact(points, centers)

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 11),
        k=st.integers(1, 29),
        offset=st.integers(0, 12),
        separation=st.integers(0, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_exact_over_offsets_and_separations(self, d, k, offset, separation, seed):
        """Offsets 1e0..1e12 and cluster separations 1e0..1e10: every
        assignment is the difference oracle's."""
        rng = np.random.default_rng(seed)
        means = rng.normal(size=(3, d)) * 10.0**separation
        labels = rng.integers(0, 3, size=150)
        points = 10.0**offset * rng.uniform(-1.0, 1.0, size=d) + means[labels]
        points += rng.normal(size=(150, d))
        centers = points[rng.choice(150, size=k, replace=False)]
        _assert_exact(points, centers)


class TestIncrementalUpdate:
    def test_first_center_initialises(self, rng):
        points = rng.normal(size=(20, 3))
        squared, assignment = update_nearest_with_new_center(points, points[0], None, None, 0)
        assert squared[0] == pytest.approx(0.0)
        assert (assignment == 0).all()

    def test_incremental_matches_batch(self, rng):
        points = rng.normal(size=(40, 4))
        centers = rng.normal(size=(6, 4))
        squared, assignment = None, None
        for index in range(centers.shape[0]):
            squared, assignment = update_nearest_with_new_center(
                points, centers[index], squared, assignment, index
            )
        expected_sq, expected_assignment = squared_point_to_set_distances(points, centers)
        np.testing.assert_allclose(squared, expected_sq, atol=1e-8)
        np.testing.assert_array_equal(assignment, expected_assignment)


class TestDiameterUpperBound:
    def test_upper_bounds_true_diameter(self, rng):
        points = rng.normal(size=(100, 5))
        true_diameter = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2).max()
        bound = diameter_upper_bound(points)
        assert bound >= true_diameter - 1e-9
        assert bound <= 2 * true_diameter + 1e-9

    def test_identical_points_give_zero(self):
        points = np.ones((10, 3))
        assert diameter_upper_bound(points) == pytest.approx(0.0)
