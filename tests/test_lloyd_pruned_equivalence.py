"""Exact-equivalence suite: pruned Lloyd vs the frozen naive reference.

The contract of :mod:`repro.clustering.lloyd` is that the Hamerly-bounded
engine may only *skip* work whose outcome is provably unchanged, so every
observable output — assignments, centers, costs, iteration counts,
convergence flags, and the consumption of the random generator (exercised by
the empty-cluster repair path) — must be **bit-identical** to the frozen
full-recompute loop in :mod:`repro.reference.naive_lloyd`.
"""

import numpy as np
import pytest

from repro.clustering.lloyd import kmeans
from repro.data.synthetic import gaussian_mixture
from repro.native import use_native
from repro.reference.naive_lloyd import naive_kmeans


# Run the whole suite twice: once with the compiled kernel tier enabled and
# once forced to the pure-numpy fallbacks.  The bit-identity contract against
# the frozen naive reference must hold in both dispatch modes.
@pytest.fixture(scope="module", params=[True, False], ids=["native", "fallback"], autouse=True)
def _kernel_tier(request):
    with use_native(request.param):
        yield

SHAPES = [(400, 2, 3), (1500, 8, 12), (1000, 3, 25), (600, 16, 7), (800, 5, 40)]


def _assert_bit_identical(result, reference):
    assert np.array_equal(result.assignment, reference.assignment)
    assert np.array_equal(result.centers, reference.centers)
    assert result.cost == reference.cost
    assert result.iterations == reference.iterations
    assert result.converged == reference.converged


class TestPrunedEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("shape", SHAPES)
    def test_bit_identical_across_seeds_and_shapes(self, seed, shape):
        n, d, k = shape
        points = gaussian_mixture(
            n=n, d=d, n_clusters=max(2, k // 2), gamma=float(seed % 3), seed=seed
        ).points
        pruned = kmeans(points, k, seed=seed, max_iterations=40)
        naive = naive_kmeans(points, k, seed=seed, max_iterations=40)
        _assert_bit_identical(pruned, naive)

    @pytest.mark.parametrize("seed", range(3))
    def test_bit_identical_with_weights(self, seed):
        points = gaussian_mixture(n=900, d=6, n_clusters=5, gamma=1.0, seed=seed).points
        weights = np.random.default_rng(seed).uniform(0.05, 4.0, points.shape[0])
        pruned = kmeans(points, 11, weights=weights, seed=seed, max_iterations=40)
        naive = naive_kmeans(points, 11, weights=weights, seed=seed, max_iterations=40)
        _assert_bit_identical(pruned, naive)

    def test_bit_identical_through_empty_cluster_reseed(self):
        """Duplicate far-away initial centers force the multi-empty repair path."""
        points = np.random.default_rng(0).normal(size=(300, 4))
        initial = np.full((6, 4), 1e6)
        initial[0] = 0.0
        pruned = kmeans(points, 6, initial_centers=initial, seed=3, max_iterations=30)
        naive = naive_kmeans(points, 6, initial_centers=initial, seed=3, max_iterations=30)
        _assert_bit_identical(pruned, naive)
        # The repair must actually have fired: every final center is finite
        # and populated (no center left stranded at 1e6).
        assert np.abs(pruned.centers).max() < 1e5

    def test_bit_identical_k1_and_k_ge_n(self):
        points = np.random.default_rng(1).normal(size=(120, 3))
        for k in (1, 2, 120):
            _assert_bit_identical(
                kmeans(points, k, seed=7, max_iterations=20),
                naive_kmeans(points, k, seed=7, max_iterations=20),
            )

    def test_pruning_actually_prunes(self):
        """The equivalence would be vacuous if the engine always recomputed."""
        points = gaussian_mixture(n=4000, d=8, n_clusters=10, gamma=0.0, seed=5).points
        result = kmeans(points, 20, seed=5, max_iterations=40)
        assert result.recompute_fraction < 0.7
        assert naive_kmeans(points, 20, seed=5, max_iterations=40).recompute_fraction == 1.0


class TestEquivalenceExtremes:
    """Fused-kernel coverage at the edges of the (n, k) grid."""

    def test_k_one_runner_up_undefined(self):
        """With a single center the runner-up distance is undefined (+inf):
        the engine must never recompute and still match bit for bit."""
        points = np.random.default_rng(2).normal(size=(500, 4)) * 3.0
        _assert_bit_identical(
            kmeans(points, 1, seed=9, max_iterations=25),
            naive_kmeans(points, 1, seed=9, max_iterations=25),
        )

    @pytest.mark.parametrize("k", [115, 118, 120])
    def test_k_near_n_mass_reseeds(self, k):
        """k close to n on heavily duplicated data: many clusters empty at
        once every iteration, exercising the multi-empty re-seed path and
        its generator consumption under the fused kernel."""
        rng = np.random.default_rng(4)
        base = rng.normal(size=(30, 3))
        points = np.concatenate([base, base, base, base])  # n=120, 30 distinct
        pruned = kmeans(points, k, seed=6, max_iterations=30)
        naive = naive_kmeans(points, k, seed=6, max_iterations=30)
        _assert_bit_identical(pruned, naive)

    def test_mass_recompute_sentinel_bounds_stay_sound(self, monkeypatch):
        """Regression test: blocks above the detail limit skip the runner-up
        id and third distance; the fallback bound for the remaining centers
        must still cover *all* of them (an early version only bounded the
        runner-up, silently freezing wrong assignments)."""
        import repro.clustering.lloyd as lloyd_module

        monkeypatch.setattr(lloyd_module, "_THIRD_DISTANCE_ROW_LIMIT", 64)
        points = gaussian_mixture(n=2500, d=6, n_clusters=8, gamma=0.0, seed=8).points
        pruned = kmeans(points, 24, seed=3, max_iterations=40)
        naive = naive_kmeans(points, 24, seed=3, max_iterations=40)
        _assert_bit_identical(pruned, naive)

    def test_prove_stay_filter_disabled_and_forced(self, monkeypatch):
        """The phase-three prove-stay filter is an optimisation only: forcing
        it on for every suspect set (or off entirely) must not change any
        output bit."""
        import repro.clustering.lloyd as lloyd_module

        points = gaussian_mixture(n=3000, d=5, n_clusters=10, gamma=0.0, seed=12).points
        reference = naive_kmeans(points, 15, seed=2, max_iterations=35)
        monkeypatch.setattr(lloyd_module, "_PROVE_STAY_FRACTION", 1)
        _assert_bit_identical(kmeans(points, 15, seed=2, max_iterations=35), reference)
        monkeypatch.setattr(lloyd_module, "_PROVE_STAY_FRACTION", 10**9)
        _assert_bit_identical(kmeans(points, 15, seed=2, max_iterations=35), reference)


class TestReseedDistinctness:
    def test_multiple_empty_clusters_reseed_distinct_points(self):
        """Satellite fix: two empty clusters must not re-seed at the same point.

        With ``replace=True`` the two far-away duplicates could both be
        re-seeded at the same heavy point, leaving one of them empty again on
        the next iteration; without replacement the re-seeded centers differ.
        """
        from repro.clustering.lloyd import lloyd_iteration

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
