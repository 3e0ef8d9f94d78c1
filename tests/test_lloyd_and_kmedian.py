"""Unit tests for repro.clustering.lloyd and repro.clustering.kmedian."""

import numpy as np
import pytest

from repro.clustering.cost import clustering_cost, weighted_total
from repro.clustering.kmeans_pp import kmeans_plus_plus
from repro.clustering.kmedian import cluster_representative, geometric_median, kmedian
from repro.clustering.lloyd import kmeans, lloyd_iteration
from repro.data.synthetic import gaussian_mixture
from repro.native import use_native


class TestLloyd:
    def test_cost_not_worse_than_seeding(self, blobs):
        seeding = kmeans_plus_plus(blobs, 6, seed=0)
        result = kmeans(blobs, 6, initial_centers=seeding.centers, seed=0)
        assert result.cost <= seeding.cost + 1e-6

    def test_monotone_improvement_over_iterations(self, blobs):
        one = kmeans(blobs, 5, max_iterations=1, seed=3)
        many = kmeans(blobs, 5, max_iterations=20, seed=3)
        assert many.cost <= one.cost + 1e-6

    def test_result_fields(self, blobs):
        result = kmeans(blobs, 4, seed=0)
        assert result.centers.shape == (4, blobs.shape[1])
        assert result.assignment.shape == (blobs.shape[0],)
        assert result.iterations >= 1
        assert result.cost == pytest.approx(clustering_cost(blobs, result.centers), rel=1e-6)

    def test_perfectly_separable_data_reaches_zero_cost(self):
        points = np.concatenate([np.zeros((50, 2)), np.ones((50, 2)) * 100])
        result = kmeans(points, 2, seed=0)
        assert result.cost == pytest.approx(0.0, abs=1e-6)

    def test_weighted_clustering_respects_weights(self):
        points = np.array([[0.0], [1.0], [100.0]])
        weights = np.array([1.0, 1.0, 1e-9])
        result = kmeans(points, 1, weights=weights, seed=0)
        # The heavy points dominate: the single center must sit near 0.5.
        assert result.centers[0, 0] == pytest.approx(0.5, abs=0.1)

    def test_converged_flag(self, blobs):
        result = kmeans(blobs, 3, max_iterations=100, tolerance=1e-3, seed=1)
        assert result.converged

    def test_empty_cluster_reseeded(self):
        # Force an initial center far away from all points: after one Lloyd
        # step no point is assigned to it and it must be re-seeded.
        points = np.concatenate([np.zeros((30, 2)), np.ones((30, 2))])
        initial = np.array([[0.0, 0.0], [1.0, 1.0], [1e6, 1e6]])
        result = kmeans(points, 3, initial_centers=initial, max_iterations=3, seed=0)
        assert np.isfinite(result.centers).all()
        assert result.centers[:, 0].max() < 1e6

    def test_lloyd_iteration_moves_to_means(self):
        points = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 0.0], [12.0, 0.0]])
        centers = np.array([[1.0, 0.0], [11.0, 0.0]])
        updated = lloyd_iteration(points, centers, np.ones(4), np.random.default_rng(0))
        np.testing.assert_allclose(updated, [[1.0, 0.0], [11.0, 0.0]])

    def test_as_solution_view(self, blobs):
        result = kmeans(blobs, 3, seed=0)
        solution = result.as_solution()
        assert solution.k == 3
        assert solution.z == 2


def _difference_distances(points, centers):
    """Brute force: every squared point-centre distance, by difference."""
    columns = []
    for center in centers:
        delta = points - center
        columns.append(np.einsum("ij,ij->i", delta, delta))
    return np.stack(columns, axis=1)


def _assert_lloyd_fixed_point(points, result, weights=None):
    """The final assignment is the nearest centre by difference (ties to the
    lowest index), and the cost is the weighted sum of those distances."""
    weights = np.ones(points.shape[0]) if weights is None else weights
    squared = _difference_distances(points, result.centers)
    np.testing.assert_array_equal(result.assignment, squared.argmin(axis=1))
    assert result.cost == weighted_total(weights, squared.min(axis=1))


# The k-means++ seeding inside ``kmeans`` dispatches to the compiled tier,
# so every brute-force check runs once per tier.
@pytest.fixture(params=[True, False], ids=["native", "fallback"])
def kernel_tier(request):
    with use_native(request.param):
        yield


@pytest.mark.usefixtures("kernel_tier")
class TestPlainLoopAgainstBruteForce:
    """Observable behaviour of the plain Lloyd loop, checked by brute force."""

    SHAPES = [(400, 2, 3), (1500, 8, 12), (1000, 3, 25), (600, 16, 7), (800, 5, 40)]

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: "n{}-d{}-k{}".format(*shape))
    def test_assignment_and_cost_match_brute_force(self, shape, seed):
        n, d, k = shape
        points = gaussian_mixture(
            n=n, d=d, n_clusters=max(2, k // 2), gamma=float(seed % 3), seed=seed
        ).points
        result = kmeans(points, k, seed=seed, max_iterations=40)
        assert result.centers.shape == (k, d)
        _assert_lloyd_fixed_point(points, result)

    @pytest.mark.parametrize("seed", range(3))
    def test_weighted_assignment_and_cost_match_brute_force(self, seed):
        points = gaussian_mixture(n=900, d=6, n_clusters=5, gamma=1.0, seed=seed).points
        weights = np.random.default_rng(seed).uniform(0.05, 4.0, points.shape[0])
        result = kmeans(points, 11, weights=weights, seed=seed, max_iterations=40)
        _assert_lloyd_fixed_point(points, result, weights)

    def test_single_center_is_the_weighted_mean(self):
        points = np.random.default_rng(2).normal(size=(500, 4)) * 3.0
        weights = np.random.default_rng(3).uniform(0.1, 2.0, 500)
        result = kmeans(points, 1, weights=weights, seed=9, max_iterations=25)
        mean = np.average(points, axis=0, weights=weights)
        np.testing.assert_allclose(result.centers[0], mean, rtol=1e-12, atol=1e-12)
        assert (result.assignment == 0).all()
        expected = float(np.dot(weights, ((points - mean) ** 2).sum(axis=1)))
        assert result.cost == pytest.approx(expected, rel=1e-12)
        # The centre is the optimum from the first step: the second confirms it.
        assert result.converged and result.iterations == 2

    @pytest.mark.parametrize("k", [115, 118, 120])
    def test_k_near_n_on_duplicated_rows(self, k):
        """k close to n with 30 distinct rows: many clusters empty at once
        every iteration, so the multi-empty re-seed path runs repeatedly."""
        base = np.random.default_rng(4).normal(size=(30, 3))
        points = np.concatenate([base, base, base, base])
        result = kmeans(points, k, seed=6, max_iterations=30)
        assert result.centers.shape == (k, 3)
        assert np.isfinite(result.centers).all()
        _assert_lloyd_fixed_point(points, result)
        # Every row sits on a centre: nothing is left to improve.
        assert result.cost == 0.0

    def test_generator_untouched_without_empty_clusters(self):
        points = gaussian_mixture(n=900, d=4, n_clusters=5, gamma=0.0, seed=1).points
        initial = points[np.random.default_rng(0).choice(points.shape[0], 5, replace=False)]
        generator = np.random.default_rng(42)
        state = generator.bit_generator.state
        result = kmeans(points, 5, initial_centers=initial, seed=generator, max_iterations=30)
        assert np.bincount(result.assignment, minlength=5).min() > 0
        assert generator.bit_generator.state == state

    def test_multi_empty_repair_advances_the_generator(self):
        """Duplicate far-away initial centres force the multi-empty repair."""
        points = np.random.default_rng(0).normal(size=(300, 4))
        initial = np.full((6, 4), 1e6)
        initial[0] = 0.0
        generator = np.random.default_rng(3)
        state = generator.bit_generator.state
        result = kmeans(points, 6, initial_centers=initial, seed=generator, max_iterations=30)
        assert generator.bit_generator.state != state
        assert np.abs(result.centers).max() < 1e5
        _assert_lloyd_fixed_point(points, result)


class TestFarFromOrigin:
    """Lloyd and k-median on data at a 1e8 offset behave as at the origin.

    ``near`` is ``far - 1e8``, an exact subtraction, so both runs see the
    same by-difference distances; only the centre means round differently.
    """

    @staticmethod
    def _far_and_near(seed):
        far = 1e8 + np.random.default_rng(seed).normal(size=(4000, 5))
        return far, far - 1e8

    @pytest.mark.parametrize("seed", [0, 3])
    def test_kmeans_matches_the_origin_run(self, seed):
        far, near = self._far_and_near(seed)
        at_offset = kmeans(far, 10, seed=seed)
        at_origin = kmeans(near, 10, seed=seed)
        np.testing.assert_array_equal(at_offset.assignment, at_origin.assignment)
        assert at_offset.iterations == at_origin.iterations
        assert at_offset.cost == pytest.approx(at_origin.cost, rel=1e-8)
        _assert_lloyd_fixed_point(far, at_offset)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_kmedian_cost_close_to_the_origin_run(self, seed):
        # An expansion on the raw coordinates reports 0.04x the origin cost
        # here.  Weiszfeld's stop scales with the points' mean distance to
        # the median, so the offset run stops where the origin run does.
        far, near = self._far_and_near(seed)
        at_offset = kmedian(far, 10, seed=seed)
        at_origin = kmedian(near, 10, seed=seed)
        assert at_offset.iterations == at_origin.iterations
        assert at_offset.cost == pytest.approx(at_origin.cost, rel=1e-8)


class TestReseedDistinctness:
    def test_multiple_empty_clusters_reseed_distinct_points(self):
        """Two empty clusters must not re-seed at the same point.

        With ``replace=True`` the two far-away duplicates could both be
        re-seeded at the same heavy point, leaving one of them empty again on
        the next iteration; without replacement the re-seeded centers differ.
        """
        rng = np.random.default_rng(11)
        points = np.concatenate(
            [rng.normal(size=(50, 2)), rng.normal(loc=50.0, size=(50, 2))]
        )
        weights = np.ones(points.shape[0])
        centers = np.full((4, 2), 1e7)
        centers[0] = 0.0
        for trial in range(20):
            updated = lloyd_iteration(points, centers, weights, np.random.default_rng(trial))
            reseeded = updated[1:]
            distinct = {tuple(row) for row in np.round(reseeded, 12)}
            assert len(distinct) == reseeded.shape[0]


class TestGeometricMedian:
    def test_single_point(self):
        point = np.array([[3.0, 4.0]])
        np.testing.assert_allclose(geometric_median(point), [3.0, 4.0])

    def test_collinear_points_median(self):
        points = np.array([[0.0], [1.0], [10.0]])
        # The geometric median of collinear points is the (1-D) median.
        assert geometric_median(points)[0] == pytest.approx(1.0, abs=1e-3)

    def test_weights_pull_the_median(self):
        points = np.array([[0.0], [10.0]])
        weights = np.array([10.0, 1.0])
        assert geometric_median(points, weights=weights)[0] == pytest.approx(0.0, abs=0.5)

    def test_median_minimises_cost_locally(self, rng):
        points = rng.normal(size=(200, 3))
        median = geometric_median(points)
        cost_at_median = np.linalg.norm(points - median, axis=1).sum()
        for _ in range(5):
            perturbed = median + rng.normal(scale=0.05, size=3)
            cost_perturbed = np.linalg.norm(points - perturbed, axis=1).sum()
            assert cost_at_median <= cost_perturbed + 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_offset_points_give_the_offset_median(self, seed):
        # The stop must not scale with |estimate|: at this offset such a
        # stop ends after one step, 2e-3 to 4e-3 from the at-origin median.
        near = np.random.default_rng(seed).normal(size=(400, 5))
        far = 1e8 + near
        np.testing.assert_allclose(
            geometric_median(far) - 1e8, geometric_median(near), rtol=0, atol=1e-6
        )

    def test_robust_to_outlier_compared_to_mean(self):
        points = np.concatenate([np.zeros((99, 2)), np.array([[1000.0, 1000.0]])])
        median = geometric_median(points)
        mean = points.mean(axis=0)
        assert np.linalg.norm(median) < np.linalg.norm(mean)


class TestKMedian:
    def test_cost_decreases_from_seeding(self, blobs):
        seeding = kmeans_plus_plus(blobs, 5, z=1, seed=0)
        result = kmedian(blobs, 5, initial_centers=seeding.centers, seed=0)
        assert result.cost <= clustering_cost(blobs, seeding.centers, z=1) + 1e-6

    def test_result_cost_consistent(self, blobs):
        result = kmedian(blobs, 4, seed=1)
        assert result.cost == pytest.approx(clustering_cost(blobs, result.centers, z=1), rel=1e-6)

    def test_separable_data(self):
        points = np.concatenate([np.zeros((40, 2)), np.ones((40, 2)) * 50])
        result = kmedian(points, 2, seed=0)
        assert result.cost == pytest.approx(0.0, abs=1e-3)

    def test_as_solution_has_z_one(self, blobs):
        assert kmedian(blobs, 3, seed=0).as_solution().z == 1


class TestClusterRepresentative:
    def test_z2_is_mean(self, rng):
        points = rng.normal(size=(50, 4))
        np.testing.assert_allclose(cluster_representative(points, z=2), points.mean(axis=0))

    def test_z1_is_geometric_median(self):
        points = np.array([[0.0], [1.0], [100.0]])
        representative = cluster_representative(points, z=1)
        assert representative[0] == pytest.approx(1.0, abs=1e-2)

    def test_weighted_mean(self):
        points = np.array([[0.0], [10.0]])
        weights = np.array([3.0, 1.0])
        assert cluster_representative(points, weights=weights, z=2)[0] == pytest.approx(2.5)
