"""Unit tests for repro.core.uniform."""

import numpy as np
import pytest

from repro.clustering.cost import clustering_cost
from repro.core.uniform import UniformSampling, uniform_sample


class TestUniformSampling:
    def test_sample_size_and_weights(self, blobs):
        coreset = UniformSampling(seed=0).sample(blobs, 100)
        assert coreset.size == 100
        # Every sampled point carries n / m weight.
        np.testing.assert_allclose(coreset.weights, blobs.shape[0] / 100)
        assert coreset.total_weight == pytest.approx(blobs.shape[0])

    def test_points_come_from_input(self, blobs):
        coreset = UniformSampling(seed=1).sample(blobs, 50)
        assert coreset.indices is not None
        np.testing.assert_allclose(coreset.points, blobs[coreset.indices])

    def test_without_replacement_unique_indices(self, blobs):
        coreset = UniformSampling(seed=2).sample(blobs, 200)
        assert len(set(coreset.indices.tolist())) == 200

    def test_with_replacement_allowed(self, blobs):
        coreset = UniformSampling(replace=True, seed=3).sample(blobs, 200)
        assert coreset.size == 200

    def test_cost_estimate_unbiased_on_average(self, blobs, rng):
        centers = blobs[rng.choice(blobs.shape[0], size=5, replace=False)]
        true_cost = clustering_cost(blobs, centers)
        estimates = [
            UniformSampling(seed=seed).sample(blobs, 300).cost(centers) for seed in range(20)
        ]
        assert np.mean(estimates) == pytest.approx(true_cost, rel=0.15)

    def test_weighted_input_changes_selection(self):
        points = np.concatenate([np.zeros((100, 2)), np.ones((100, 2)) * 5])
        weights = np.concatenate([np.full(100, 1e-9), np.full(100, 1.0)])
        coreset = UniformSampling(seed=0).sample(points, 50, weights=weights)
        # Essentially all selection mass is on the second half.
        assert (coreset.indices >= 100).mean() > 0.9
        assert coreset.total_weight == pytest.approx(weights.sum())

    def test_sample_larger_than_n_rejected(self, blobs):
        with pytest.raises(ValueError):
            UniformSampling(seed=0).sample(blobs, blobs.shape[0] + 1)

    def test_functional_wrapper(self, blobs):
        coreset = uniform_sample(blobs, 80, seed=0)
        assert coreset.size == 80
        assert coreset.method == "uniform"

    def test_reproducibility(self, blobs):
        a = UniformSampling(seed=9).sample(blobs, 40)
        b = UniformSampling(seed=9).sample(blobs, 40)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_per_call_seed_overrides_constructor(self, blobs):
        sampler = UniformSampling(seed=1)
        a = sampler.sample(blobs, 40, seed=123)
        b = sampler.sample(blobs, 40, seed=123)
        c = sampler.sample(blobs, 40, seed=456)
        np.testing.assert_array_equal(a.indices, b.indices)
        assert not np.array_equal(a.indices, c.indices)

    def test_misses_rare_outliers_often(self, outlier_data):
        # The paper's core point: with 12 outliers in 2000 points, a sample of
        # 60 misses the outlier cluster entirely in a sizeable fraction of runs.
        misses = 0
        for seed in range(30):
            coreset = UniformSampling(seed=seed).sample(outlier_data, 60)
            selected = outlier_data[coreset.indices]
            if not (selected[:, 0] > 250.0).any():
                misses += 1
        assert misses >= 5
