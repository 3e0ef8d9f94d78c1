"""Unit tests for repro.clustering.fast_kmeans_pp."""

import numpy as np
import pytest

from repro.clustering.cost import clustering_cost, cost_to_assigned_centers
from repro.clustering.fast_kmeans_pp import FastKMeansPlusPlus, fast_kmeans_plus_plus
from repro.clustering.kmeans_pp import kmeans_plus_plus
from repro.native.registry import use_native


@pytest.fixture(autouse=True, params=[True, False], ids=["native", "fallback"])
def _dispatch_mode(request):
    """Run the whole module under both kernel-dispatch modes.

    The seeding promises bit-identical draws, labels, and costs whether the
    compiled ``fkpp_level_score``/``fkpp_weighted_draw`` kernels serve or
    the numpy sweep runs, so every behavioural test must hold in both
    modes (on boxes without a C compiler both params exercise the
    fallback).
    """
    with use_native(request.param):
        yield request.param


class TestFastKMeansPlusPlus:
    def test_returns_k_centers_from_input(self, blobs):
        solution = fast_kmeans_plus_plus(blobs, 6, seed=0)
        assert solution.centers.shape == (6, blobs.shape[1])
        for center in solution.centers:
            assert np.any(np.all(np.isclose(blobs, center), axis=1))

    def test_assignment_is_complete_and_valid(self, blobs):
        solution = fast_kmeans_plus_plus(blobs, 5, seed=0)
        assert solution.assignment.shape == (blobs.shape[0],)
        assert solution.assignment.min() >= 0
        assert solution.assignment.max() < 5

    def test_cost_matches_assignment(self, blobs):
        solution = fast_kmeans_plus_plus(blobs, 5, seed=1)
        recomputed = cost_to_assigned_centers(blobs, solution.centers, solution.assignment)
        assert solution.cost == pytest.approx(recomputed, rel=1e-9)

    def test_assignment_within_approximation_of_exact_seeding(self, blobs):
        # The tree-metric assignment is an O(d^z log k) approximation; on this
        # easy fixture it should stay within a generous constant of the exact
        # k-means++ solution cost.
        fast = fast_kmeans_plus_plus(blobs, 6, seed=2)
        exact = kmeans_plus_plus(blobs, 6, seed=2)
        d = blobs.shape[1]
        bound = max(50.0, (d ** 2) * np.log2(6 + 1) * 4)
        assert fast.cost <= bound * max(exact.cost, 1e-12)

    def test_spreads_centers_over_separated_clusters(self):
        rng = np.random.default_rng(0)
        centers = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0]])
        points = np.concatenate([c + rng.normal(scale=0.5, size=(100, 2)) for c in centers])
        solution = fast_kmeans_plus_plus(points, 4, seed=1)
        # Each true cluster should receive at least one center.
        assigned_clusters = set()
        for center in solution.centers:
            assigned_clusters.add(int(np.argmin(np.linalg.norm(centers - center, axis=1))))
        assert len(assigned_clusters) == 4

    def test_k_at_least_n(self):
        points = np.arange(8, dtype=float).reshape(4, 2)
        solution = fast_kmeans_plus_plus(points, 10, seed=0)
        assert solution.centers.shape == (4, 2)
        assert solution.cost == pytest.approx(0.0)

    def test_reproducible_with_same_seed(self, blobs):
        a = fast_kmeans_plus_plus(blobs, 5, seed=7)
        b = fast_kmeans_plus_plus(blobs, 5, seed=7)
        np.testing.assert_allclose(a.centers, b.centers)
        np.testing.assert_array_equal(a.assignment, b.assignment)

    def test_weighted_points_respected(self):
        points = np.concatenate([np.zeros((100, 2)), np.ones((100, 2)) * 50])
        weights = np.concatenate([np.full(100, 1e-9), np.full(100, 1.0)])
        solution = fast_kmeans_plus_plus(points, 1, weights=weights, seed=0)
        assert solution.centers[0, 0] == pytest.approx(50.0, abs=1.0)

    def test_kmedian_mode(self, blobs):
        solution = fast_kmeans_plus_plus(blobs, 4, z=1, seed=0)
        assert solution.z == 1
        assert solution.cost >= 0

    def test_solver_records_internal_state(self, blobs):
        solver = FastKMeansPlusPlus(k=4, n_trees=2, seed=0)
        solver.fit(blobs)
        assert len(solver.trees_) == 2
        assert solver.center_indices_.shape == (4,)
        assert solver.tree_distances_.shape == (blobs.shape[0],)
        assert np.isfinite(solver.tree_distances_).all()

    def test_duplicate_points(self):
        points = np.zeros((50, 3))
        solution = fast_kmeans_plus_plus(points, 3, seed=0)
        assert solution.cost == pytest.approx(0.0)

    def test_identical_cost_scale_with_weights_none_vs_ones(self, blobs):
        base = fast_kmeans_plus_plus(blobs, 4, seed=5)
        weighted = fast_kmeans_plus_plus(blobs, 4, weights=np.ones(blobs.shape[0]), seed=5)
        np.testing.assert_allclose(base.centers, weighted.centers)


def test_one_tree_sweep_per_tree_and_center(blobs, _dispatch_mode):
    from repro import observability
    from repro.native import kernel_provider

    with observability.tracing() as recorder:
        fast_kmeans_plus_plus(blobs, 7, n_trees=2, seed=3)
    counters = recorder.counters()
    native = _dispatch_mode and kernel_provider("fkpp_level_score") != "fallback"
    served = "fastkpp.level_score.native" if native else "fastkpp.level_score.numpy"
    assert counters[served] == 14.0
    assert len([name for name in counters if name.startswith("fastkpp.level_score.")]) == 1
