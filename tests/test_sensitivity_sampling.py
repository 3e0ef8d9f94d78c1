"""Unit tests for repro.core.sensitivity (scores, standard / lightweight / welterweight)."""

import numpy as np
import pytest

from repro.clustering.cost import ClusteringSolution, clustering_cost
from repro.clustering.kmeans_pp import kmeans_plus_plus
from repro.core.sensitivity import (
    LightweightCoreset,
    SensitivitySampling,
    WelterweightCoreset,
    sample_by_scores,
    sensitivity_scores,
)
from repro.native.registry import use_native


@pytest.fixture(autouse=True, params=[True, False], ids=["native", "fallback"])
def _dispatch_mode(request):
    """Run the whole module under both kernel-dispatch modes.

    Every construction here seeds its candidate solution with k-means++,
    whose compiled ``kmeanspp_round`` path must be bit-identical to the
    numpy loop, so scores and coresets must behave the same in both modes.
    """
    with use_native(request.param):
        yield request.param


class TestSensitivityScores:
    def test_scores_sum_to_two_per_cluster(self, blobs):
        # Equation (1): within each cluster the cost terms sum to 1 and the
        # 1/|C| terms sum to 1, so the per-cluster total is exactly 2.
        solution = kmeans_plus_plus(blobs, 5, seed=0)
        scores = sensitivity_scores(blobs, solution)
        for cluster in range(5):
            members = solution.assignment == cluster
            if members.any():
                assert scores[members].sum() == pytest.approx(2.0, rel=1e-6)

    def test_scores_non_negative(self, imbalanced_blobs):
        solution = kmeans_plus_plus(imbalanced_blobs, 6, seed=1)
        scores = sensitivity_scores(imbalanced_blobs, solution)
        assert (scores >= 0).all()

    def test_far_points_get_higher_scores(self):
        points = np.concatenate([np.zeros((99, 2)), np.array([[100.0, 0.0]])])
        solution = ClusteringSolution(
            centers=np.zeros((1, 2)), assignment=np.zeros(100, dtype=np.int64)
        )
        scores = sensitivity_scores(points, solution)
        assert scores[-1] > scores[0] * 10

    def test_weighted_scores_respect_weights(self):
        points = np.array([[0.0], [1.0], [10.0]])
        weights = np.array([5.0, 5.0, 1.0])
        solution = ClusteringSolution(
            centers=np.array([[0.0]]), assignment=np.zeros(3, dtype=np.int64)
        )
        scores = sensitivity_scores(points, solution, weights=weights)
        mass = weights * scores
        # The cost-share plus size-share of the whole cluster is still 2.
        assert mass.sum() == pytest.approx(2.0, rel=1e-6)

    def test_nearest_assignment_used_when_requested(self, blobs):
        solution = kmeans_plus_plus(blobs, 4, seed=2)
        shuffled = ClusteringSolution(centers=solution.centers, assignment=None)
        scores = sensitivity_scores(blobs, shuffled, use_solution_assignment=False)
        assert scores.shape == (blobs.shape[0],)
        assert (scores >= 0).all()


class TestSampleByScores:
    def test_unbiased_cost_estimator(self, blobs, rng):
        solution = kmeans_plus_plus(blobs, 5, seed=0)
        scores = sensitivity_scores(blobs, solution)
        weights = np.ones(blobs.shape[0])
        centers = blobs[rng.choice(blobs.shape[0], size=5, replace=False)]
        true_cost = clustering_cost(blobs, centers)
        estimates = []
        for seed in range(25):
            indices, sample_weights = sample_by_scores(
                blobs, weights, scores, 300, np.random.default_rng(seed)
            )
            estimates.append(
                clustering_cost(blobs[indices], centers, weights=sample_weights)
            )
        assert np.mean(estimates) == pytest.approx(true_cost, rel=0.1)

    def test_degenerate_zero_scores_fall_back_to_uniform(self, blobs):
        indices, weights = sample_by_scores(
            blobs, np.ones(blobs.shape[0]), np.zeros(blobs.shape[0]), 10, np.random.default_rng(0)
        )
        assert indices.shape == (10,)
        assert weights.sum() == pytest.approx(blobs.shape[0])


class TestSensitivitySampling:
    def test_coreset_size_and_method(self, blobs):
        coreset = SensitivitySampling(k=6, seed=0).sample(blobs, 200)
        assert coreset.size == 200
        assert coreset.method == "sensitivity"
        assert coreset.metadata["j"] == 6.0

    def test_total_weight_close_to_n(self, blobs):
        coreset = SensitivitySampling(k=6, seed=0).sample(blobs, 300)
        assert coreset.total_weight == pytest.approx(blobs.shape[0], rel=0.25)

    def test_captures_outliers(self, outlier_data):
        # Unlike uniform sampling, sensitivity sampling essentially always
        # includes the far-away cluster.
        captured = 0
        for seed in range(10):
            coreset = SensitivitySampling(k=4, seed=seed).sample(outlier_data, 80)
            if (coreset.points[:, 0] > 250.0).any():
                captured += 1
        assert captured == 10

    def test_center_correction_adds_mass(self, blobs):
        plain = SensitivitySampling(k=5, seed=0).sample(blobs, 100)
        corrected = SensitivitySampling(k=5, include_center_correction=True, seed=0).sample(blobs, 100)
        assert corrected.size >= plain.size
        assert corrected.total_weight >= plain.total_weight - 1e-6

    def test_kmedian_mode(self, blobs):
        coreset = SensitivitySampling(k=5, z=1, seed=0).sample(blobs, 150)
        assert coreset.size == 150

    def test_invalid_k_raises(self):
        with pytest.raises(ValueError):
            SensitivitySampling(k=0)


class TestLightweightCoreset:
    def test_size_weights_and_method(self, blobs):
        coreset = LightweightCoreset(seed=0).sample(blobs, 200)
        assert coreset.size == 200
        assert coreset.method == "lightweight"
        assert coreset.total_weight == pytest.approx(blobs.shape[0], rel=0.3)

    def test_runs_without_kmeans_solution(self, blobs):
        # Lightweight coresets only need the mean: they work even for k much
        # larger than what a candidate solution could provide.
        coreset = LightweightCoreset(seed=1).sample(blobs, 50)
        assert coreset.size == 50

    def test_degenerate_identical_points(self):
        points = np.ones((100, 3))
        coreset = LightweightCoreset(seed=0).sample(points, 10)
        assert coreset.total_weight == pytest.approx(100.0, rel=1e-6)

    def test_biased_toward_far_points(self, outlier_data):
        coreset = LightweightCoreset(seed=0).sample(outlier_data, 100)
        fraction_outliers = (coreset.points[:, 0] > 250.0).mean()
        # Outliers are 0.6% of the data but far from the mean, so they are
        # heavily over-represented in the sample.
        assert fraction_outliers > 0.05


class TestWelterweightCoreset:
    def test_default_j_is_log_k(self):
        sampler = WelterweightCoreset(k=64)
        assert sampler.j == 6
        assert sampler.name == "welterweight"

    def test_explicit_j(self):
        assert WelterweightCoreset(k=100, j=10).j == 10

    def test_sample_shape(self, blobs):
        coreset = WelterweightCoreset(k=8, seed=0).sample(blobs, 150)
        assert coreset.size == 150
        assert coreset.metadata["j"] == float(WelterweightCoreset(k=8).j)

    def test_interpolates_between_lightweight_and_sensitivity(self, imbalanced_blobs):
        # As j grows the candidate solution gets finer; the construction must
        # still produce valid, roughly mass-preserving compressions.
        for j in (1, 2, 4, 6):
            coreset = WelterweightCoreset(k=6, j=j, seed=0).sample(imbalanced_blobs, 200)
            assert coreset.total_weight == pytest.approx(imbalanced_blobs.shape[0], rel=0.5)
