"""Unit tests for repro.clustering.cost."""

import math

import numpy as np
import pytest

from repro.clustering.cost import (
    ClusteringSolution,
    assign_points,
    cluster_sizes,
    clustering_cost,
    cost_to_assigned_centers,
    per_point_costs,
    weighted_total,
)


class TestWeightedTotal:
    def test_matches_the_exactly_rounded_sum(self, rng):
        weights = rng.uniform(0.0, 3.0, 50_000)
        values = rng.exponential(size=50_000)
        total = weighted_total(weights, values)
        assert type(total) is float
        assert total == pytest.approx(math.fsum(weights * values), rel=1e-12)


class TestClusteringCost:
    def test_kmeans_cost_by_hand(self):
        points = np.array([[0.0], [2.0], [10.0]])
        centers = np.array([[0.0], [10.0]])
        # Nearest assignments: 0 -> 0 (cost 0), 2 -> 0 (cost 4), 10 -> 1 (cost 0).
        assert clustering_cost(points, centers, z=2) == pytest.approx(4.0)

    def test_kmedian_cost_by_hand(self):
        points = np.array([[0.0], [2.0], [10.0]])
        centers = np.array([[0.0], [10.0]])
        assert clustering_cost(points, centers, z=1) == pytest.approx(2.0)

    def test_weights_scale_cost(self):
        points = np.array([[1.0], [3.0]])
        centers = np.array([[0.0]])
        unweighted = clustering_cost(points, centers, z=2)
        weighted = clustering_cost(points, centers, weights=np.array([2.0, 2.0]), z=2)
        assert weighted == pytest.approx(2 * unweighted)

    def test_zero_cost_when_centers_cover_points(self):
        points = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert clustering_cost(points, points, z=2) == pytest.approx(0.0)

    def test_invalid_power_raises(self):
        with pytest.raises(ValueError):
            clustering_cost(np.ones((2, 2)), np.ones((1, 2)), z=3)


class TestAssignedCost:
    def test_assigned_cost_at_least_nearest_cost(self, rng):
        points = rng.normal(size=(50, 3))
        centers = rng.normal(size=(4, 3))
        _, nearest = assign_points(points, centers)
        worst = np.zeros_like(nearest)  # assign everything to center 0
        nearest_cost = cost_to_assigned_centers(points, centers, nearest)
        forced_cost = cost_to_assigned_centers(points, centers, worst)
        assert forced_cost >= nearest_cost - 1e-9

    def test_nearest_assignment_matches_clustering_cost(self, rng):
        points = rng.normal(size=(30, 4))
        centers = rng.normal(size=(3, 4))
        _, nearest = assign_points(points, centers)
        assert cost_to_assigned_centers(points, centers, nearest) == pytest.approx(
            clustering_cost(points, centers)
        )

    def test_wrong_assignment_length_raises(self, rng):
        with pytest.raises(ValueError):
            cost_to_assigned_centers(
                rng.normal(size=(5, 2)), rng.normal(size=(2, 2)), np.zeros(4, dtype=int)
            )


class TestPerPointCosts:
    def test_kmeans_squares_distances(self):
        points = np.array([[3.0, 4.0]])
        centers = np.array([[0.0, 0.0]])
        costs, assignment = per_point_costs(points, centers, z=2)
        assert costs[0] == pytest.approx(25.0)
        assert assignment[0] == 0

    def test_kmedian_uses_plain_distances(self):
        points = np.array([[3.0, 4.0]])
        centers = np.array([[0.0, 0.0]])
        costs, _ = per_point_costs(points, centers, z=1)
        assert costs[0] == pytest.approx(5.0)


class TestClusterSizes:
    def test_counts_unweighted(self):
        assignment = np.array([0, 0, 1, 2, 2, 2])
        np.testing.assert_allclose(cluster_sizes(assignment, 3), [2, 1, 3])

    def test_counts_weighted(self):
        assignment = np.array([0, 1, 1])
        weights = np.array([2.0, 0.5, 0.5])
        np.testing.assert_allclose(cluster_sizes(assignment, 2, weights), [2.0, 1.0])

    def test_minlength_padding(self):
        assignment = np.array([0, 0])
        np.testing.assert_allclose(cluster_sizes(assignment, 4), [2, 0, 0, 0])


class TestClusteringSolution:
    def test_k_property(self):
        solution = ClusteringSolution(centers=np.zeros((7, 2)))
        assert solution.k == 7
