"""Unit tests for repro.core.fast_coreset (Algorithm 1)."""

import hashlib

import numpy as np
import pytest

from repro.clustering.cost import clustering_cost
from repro.clustering.kmedian import cluster_representative
from repro.core.fast_coreset import FastCoreset, fast_coreset
from repro.data.synthetic import gaussian_mixture
from repro.evaluation import coreset_distortion
from repro.native import use_native


class TestFastCoreset:
    def test_size_method_and_metadata(self, blobs):
        coreset = FastCoreset(k=6, seed=0).sample(blobs, 200)
        assert coreset.size == 200
        assert coreset.method == "fast_coreset"
        assert coreset.metadata["k"] == 6.0
        assert coreset.metadata["spread_reduction"] == 1.0

    def test_points_are_input_rows(self, blobs):
        coreset = FastCoreset(k=5, seed=0).sample(blobs, 150)
        assert coreset.indices is not None
        np.testing.assert_allclose(coreset.points, blobs[coreset.indices])

    def test_total_weight_close_to_n(self, blobs):
        coreset = FastCoreset(k=6, seed=1).sample(blobs, 300)
        assert coreset.total_weight == pytest.approx(blobs.shape[0], rel=0.3)

    def test_unbiased_cost_estimate(self, blobs, rng):
        centers = blobs[rng.choice(blobs.shape[0], size=6, replace=False)]
        true_cost = clustering_cost(blobs, centers)
        estimates = [
            FastCoreset(k=6, seed=seed).sample(blobs, 250).cost(centers) for seed in range(8)
        ]
        assert np.mean(estimates) == pytest.approx(true_cost, rel=0.25)

    def test_low_distortion_on_easy_data(self, blobs):
        coreset = FastCoreset(k=6, seed=0).sample(blobs, 300)
        assert coreset_distortion(blobs, coreset, k=6, seed=1) < 1.5

    def test_low_distortion_on_outlier_data(self, outlier_data):
        # The scenario where uniform sampling fails: Fast-Coresets must stay accurate.
        distortions = [
            coreset_distortion(
                outlier_data,
                FastCoreset(k=4, seed=seed).sample(outlier_data, 120),
                k=4,
                seed=seed + 100,
            )
            for seed in range(5)
        ]
        assert max(distortions) < 3.0

    def test_low_distortion_on_geometric_data(self, geometric_data):
        coreset = FastCoreset(k=10, seed=0).sample(geometric_data, 300)
        assert coreset_distortion(geometric_data, coreset, k=10, seed=1) < 3.0

    def test_spread_reduction_toggle(self, blobs):
        with_reduction = FastCoreset(k=5, use_spread_reduction=True, seed=0).sample(blobs, 150)
        without_reduction = FastCoreset(k=5, use_spread_reduction=False, seed=0).sample(blobs, 150)
        assert with_reduction.size == without_reduction.size == 150
        assert "original_spread" in with_reduction.metadata
        assert "original_spread" not in without_reduction.metadata

    def test_dimension_reduction_applied_to_wide_data(self, rng):
        wide = rng.normal(size=(500, 200))
        coreset = FastCoreset(k=5, dimension_threshold=64, seed=0).sample(wide, 100)
        # Coreset points keep the original dimensionality even though the
        # seeding ran in the projected space.
        assert coreset.dimension == 200

    def test_center_correction_variant(self, blobs):
        corrected = FastCoreset(k=5, include_center_correction=True, seed=0).sample(blobs, 150)
        plain = FastCoreset(k=5, include_center_correction=False, seed=0).sample(blobs, 150)
        assert corrected.size >= plain.size

    def test_kmedian_mode(self, blobs):
        coreset = FastCoreset(k=5, z=1, seed=0).sample(blobs, 200)
        assert coreset_distortion(blobs, coreset, k=5, z=1, seed=1) < 2.0

    def test_weighted_input_supported(self, blobs, rng):
        weights = rng.uniform(0.5, 2.0, size=blobs.shape[0])
        coreset = FastCoreset(k=5, seed=0).sample(blobs, 200, weights=weights)
        assert coreset.total_weight == pytest.approx(weights.sum(), rel=0.4)

    def test_functional_wrapper(self, blobs):
        coreset = fast_coreset(blobs, k=5, m=100, seed=0)
        assert coreset.size == 100
        assert coreset.method == "fast_coreset"

    def test_invalid_z_rejected(self):
        with pytest.raises(ValueError):
            FastCoreset(k=5, z=3)

    def test_reproducible(self, blobs):
        a = FastCoreset(k=5, seed=11).sample(blobs, 100)
        b = FastCoreset(k=5, seed=11).sample(blobs, 100)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_allclose(a.weights, b.weights)


#: SHA-256 of ``coreset.points.tobytes() + coreset.weights.tobytes()`` for
#: :func:`_pinned_coreset`.  The quadtree's cell labels may change with its
#: storage layout, its partitions may not, so neither may a coreset byte.
PINNED_CORESETS = {
    "z2": "63605a12047becebedaf9038a720a39793ac5573e1fe13c84972dfbb7b85831d",
    "z1": "1b66c8b19baaf59576649767287063a72b8732935d244033cb612621943ad246",
    "weighted": "5f3bf75e1a15474dceb2e87cf921e00e95aad69c02f980b9ee971775f6b9abf1",
}


def _pinned_coreset(case: str):
    points = gaussian_mixture(n=6000, d=8, n_clusters=12, gamma=1.0, seed=21).points
    points[:10, 0] += 1e4
    weights = None
    if case == "weighted":
        weights = np.random.default_rng(22).uniform(0.0, 3.0, size=points.shape[0])
        weights[::11] = 0.0
    z = 1 if case == "z1" else 2
    return FastCoreset(20, z=z).sample(points, 600, weights=weights, seed=23)


@pytest.mark.parametrize("native", [True, False], ids=["native", "numpy"])
@pytest.mark.parametrize("case", sorted(PINNED_CORESETS))
def test_fast_coreset_bytes_are_pinned(case, native):
    with use_native(native):
        coreset = _pinned_coreset(case)
    digest = hashlib.sha256(coreset.points.tobytes() + coreset.weights.tobytes()).hexdigest()
    assert digest == PINNED_CORESETS[case]


class TestClusterRepresentatives:
    """One stable argsort groups the clusters; the representatives are the
    bytes the per-cluster ``assignment == cluster`` scan gives."""

    @staticmethod
    def _scanned(sampler, points, weights, assignment, k):
        representatives = np.zeros((k, points.shape[1]))
        for cluster in range(k):
            members = np.flatnonzero(assignment == cluster)
            if members.size:
                representatives[cluster] = cluster_representative(
                    points[members], weights=weights[members], z=sampler.z
                )
        return representatives

    @pytest.mark.parametrize("z", [1, 2])
    @pytest.mark.parametrize("seed", range(3))
    def test_grouping_matches_the_per_cluster_scan(self, z, seed):
        rng = np.random.default_rng(seed)
        n, k = 3000, 40
        points = rng.normal(size=(n, 5)) * 10.0 ** rng.uniform(-2, 4)
        weights = rng.uniform(0.0, 2.0, size=n)
        # Every fourth cluster stays empty; the others interleave.
        assignment = 4 * rng.integers(0, k // 4, size=n) + rng.integers(1, 4, size=n)
        sampler = FastCoreset(k, z=z)
        grouped = sampler._cluster_representatives(points, weights, assignment, k)
        expected = self._scanned(sampler, points, weights, assignment, k)
        assert grouped.tobytes() == expected.tobytes()
        assert not grouped[::4].any()
