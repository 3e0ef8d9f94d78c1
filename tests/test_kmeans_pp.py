"""Unit tests for repro.clustering.kmeans_pp."""

import numpy as np
import pytest

from repro import observability as obs
from repro.clustering.cost import clustering_cost
from repro.clustering.kmeans_pp import bicriteria_kmeans_pp, kmeans_plus_plus
from repro.native import get_kernel
from repro.native.registry import use_native


@pytest.fixture(autouse=True, params=[True, False], ids=["native", "fallback"])
def _dispatch_mode(request):
    """Run the whole module under both kernel-dispatch modes.

    The seeding promises bit-identical centers, labels, and costs whether
    the compiled ``kmeanspp_round`` kernel serves each round or the numpy
    loop runs, so every behavioural test must hold in both modes (on boxes
    without a compiler both params exercise the fallback).
    """
    with use_native(request.param):
        yield request.param


class TestKMeansPlusPlus:
    def test_returns_k_centers_from_input(self, blobs):
        solution = kmeans_plus_plus(blobs, 6, seed=0)
        assert solution.centers.shape == (6, blobs.shape[1])
        # Every center is an input point.
        for center in solution.centers:
            assert np.any(np.all(np.isclose(blobs, center), axis=1))

    def test_assignment_covers_all_points(self, blobs):
        solution = kmeans_plus_plus(blobs, 5, seed=0)
        assert solution.assignment.shape == (blobs.shape[0],)
        assert set(np.unique(solution.assignment)).issubset(set(range(5)))

    def test_cost_matches_clustering_cost(self, blobs):
        solution = kmeans_plus_plus(blobs, 4, seed=1)
        assert solution.cost == pytest.approx(clustering_cost(blobs, solution.centers), rel=1e-9)

    def test_seeding_beats_random_centers(self, blobs, rng):
        seeded = kmeans_plus_plus(blobs, 6, seed=2)
        random_centers = blobs[rng.choice(blobs.shape[0], size=6, replace=False)]
        # Averaged over the fixture this holds robustly: D^2 seeding spreads
        # centers over the clusters while random picks often double up.
        assert seeded.cost <= clustering_cost(blobs, random_centers) * 1.5

    def test_k_at_least_n_returns_all_points(self):
        points = np.arange(10, dtype=float).reshape(5, 2)
        solution = kmeans_plus_plus(points, 7, seed=0)
        assert solution.centers.shape == (5, 2)
        assert solution.cost == pytest.approx(0.0)

    def test_reproducible_with_same_seed(self, blobs):
        a = kmeans_plus_plus(blobs, 5, seed=42)
        b = kmeans_plus_plus(blobs, 5, seed=42)
        np.testing.assert_allclose(a.centers, b.centers)

    def test_weighted_selection_prefers_heavy_points(self):
        # Two locations far apart; one carries almost all of the weight.
        points = np.concatenate([np.zeros((50, 2)), np.ones((50, 2)) * 100])
        weights = np.concatenate([np.full(50, 1e-6), np.full(50, 1.0)])
        solution = kmeans_plus_plus(points, 1, weights=weights, seed=0)
        assert solution.centers[0, 0] == pytest.approx(100.0, abs=1.0)

    def test_kmedian_mode(self, blobs):
        solution = kmeans_plus_plus(blobs, 4, z=1, seed=0)
        assert solution.z == 1
        assert solution.cost == pytest.approx(clustering_cost(blobs, solution.centers, z=1), rel=1e-9)

    def test_duplicate_points_handled(self):
        points = np.zeros((30, 3))
        solution = kmeans_plus_plus(points, 3, seed=0)
        assert solution.centers.shape == (3, 3)
        assert solution.cost == pytest.approx(0.0)

    def test_chosen_locations_are_never_drawn_again(self):
        # Copies of a chosen center carry no D^2 mass, so six distinct
        # locations give six distinct centers whatever the first pick.
        far = np.arange(10.0, 60.0, 10.0)[:, None] * np.ones((5, 2))
        points = np.concatenate([np.zeros((100, 2)), far])
        for seed in range(4):
            solution = kmeans_plus_plus(points, 6, seed=seed)
            assert np.unique(solution.centers, axis=0).shape[0] == 6

    def test_zero_weight_points_are_never_chosen(self, blobs):
        weights = np.ones(blobs.shape[0])
        weights[::2] = 0.0
        solution = kmeans_plus_plus(blobs, 30, weights=weights, seed=0)
        for center in solution.centers:
            (index,) = np.flatnonzero(np.all(blobs == center, axis=1))
            assert weights[index] > 0.0

    def test_assignment_is_the_nearest_center(self, blobs):
        # StreamKM++ re-weights its representatives through this assignment.
        solution = kmeans_plus_plus(blobs, 7, seed=5)
        squared = ((blobs[:, None, :] - solution.centers[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(solution.assignment, squared.argmin(axis=1))


class TestDispatchCounters:
    def test_rounds_counted_under_the_serving_path(self, blobs):
        served = "native" if get_kernel("kmeanspp_round") is not None else "numpy"
        idle = {"native": "numpy", "numpy": "native"}[served]
        with obs.tracing() as recorder:
            kmeans_plus_plus(blobs, 5, seed=0)
            kmeans_plus_plus(blobs, 3, seed=1)
        counters = recorder.counters()
        assert counters[f"kmeanspp.round.{served}"] == 8.0
        assert f"kmeanspp.round.{idle}" not in counters


class TestBicriteria:
    def test_oversamples_centers(self, blobs):
        solution = bicriteria_kmeans_pp(blobs, 5, beta=3.0, seed=0)
        assert solution.centers.shape[0] == 15

    def test_beta_below_one_raises(self, blobs):
        with pytest.raises(ValueError):
            bicriteria_kmeans_pp(blobs, 5, beta=0.5)

    def test_more_centers_never_hurt_much(self, blobs):
        base = kmeans_plus_plus(blobs, 5, seed=0)
        oversampled = bicriteria_kmeans_pp(blobs, 5, beta=2.0, seed=0)
        assert oversampled.cost <= base.cost + 1e-9
