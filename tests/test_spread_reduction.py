"""Unit tests for repro.core.spread_reduction (Algorithms 2 and 3)."""

import numpy as np
import pytest

from repro.clustering.cost import clustering_cost
from repro.clustering.kmeans_pp import kmeans_plus_plus
from repro.core.spread_reduction import (
    CrudeApproximation,
    crude_cost_upper_bound,
    reduce_spread,
)
from repro.data.synthetic import high_spread_dataset
from repro.native.registry import use_native


@pytest.fixture(autouse=True, params=[True, False], ids=["native", "fallback"])
def _dispatch_mode(request):
    """Run the whole module under both kernel-dispatch modes.

    ``crude_cost_upper_bound`` promises identical bounds whether the
    compiled ``crude_bound_probe`` kernel serves or the numpy occupancy
    probe runs, so every behavioural test must hold in both modes."""
    with use_native(request.param):
        yield request.param


class TestCrudeCostUpperBound:
    def test_upper_bound_dominates_optimum(self, blobs):
        k = 6
        approx = crude_cost_upper_bound(blobs, k, seed=0)
        # The k-median optimum is at most the cost of any k-median solution;
        # use a k-means++ seeding as a stand-in upper estimate of OPT.
        seeding_cost = clustering_cost(blobs, kmeans_plus_plus(blobs, k, z=1, seed=0).centers, z=1)
        assert approx.upper_bound >= seeding_cost * 0.9

    def test_upper_bound_not_absurdly_loose(self, blobs):
        # Lemma 4.2 allows a poly(n, d, log Delta) factor; check that the
        # implementation stays within that (very generous) envelope.
        k = 6
        approx = crude_cost_upper_bound(blobs, k, seed=0)
        seeding_cost = clustering_cost(blobs, kmeans_plus_plus(blobs, k, z=1, seed=0).centers, z=1)
        n, d = blobs.shape
        assert approx.upper_bound <= seeding_cost * n * d * 100

    def test_kmeans_bound_uses_lemma_81(self, blobs):
        approx = crude_cost_upper_bound(blobs, 4, seed=0)
        assert approx.upper_bound_for(2) == pytest.approx(
            approx.n_points * approx.upper_bound**2
        )
        assert approx.upper_bound_for(1) == approx.upper_bound

    def test_few_points_special_case(self):
        points = np.arange(6, dtype=float).reshape(3, 2)
        approx = crude_cost_upper_bound(points, 5, seed=0)
        assert approx.upper_bound > 0

    def test_duplicate_points_special_case(self):
        points = np.ones((50, 2))
        approx = crude_cost_upper_bound(points, 3, seed=0)
        assert approx.upper_bound > 0

    def test_binary_search_call_count_is_logarithmic(self, blobs):
        approx = crude_cost_upper_bound(blobs, 6, seed=0)
        # O(log(#levels)) + the initial probe; far fewer than the number of levels.
        assert approx.calls <= 12

    def test_result_dataclass_fields(self, blobs):
        approx = crude_cost_upper_bound(blobs, 6, seed=0)
        assert isinstance(approx, CrudeApproximation)
        assert approx.cell_side > 0
        assert approx.diameter > 0
        assert approx.n_points == blobs.shape[0]


class TestReduceSpread:
    def test_shape_and_row_order_preserved(self, blobs):
        result = reduce_spread(blobs, 6, seed=0)
        assert result.points.shape == blobs.shape
        assert result.shifts.shape == blobs.shape

    def test_restore_recovers_original_up_to_rounding(self, blobs):
        result = reduce_spread(blobs, 6, seed=0)
        indices = np.arange(blobs.shape[0])
        restored = result.restore(result.points, indices)
        tolerance = max(result.granularity, 1e-9) * 2
        np.testing.assert_allclose(restored, blobs, atol=tolerance)

    def test_spread_does_not_increase(self):
        dataset = high_spread_dataset(n=3000, r=25, seed=0)
        result = reduce_spread(dataset.points, 10, seed=0)
        assert result.reduced_spread <= result.original_spread * 1.01

    def test_cost_preserved_for_reasonable_solutions(self, blobs):
        # Lemma 4.5: any reasonable solution has (almost) the same cost on P
        # and P'.  Centers must be translated consistently, so compare costs
        # of the solution computed on the reduced data against the same
        # cluster structure on the original data.
        result = reduce_spread(blobs, 6, seed=0)
        solution = kmeans_plus_plus(result.points, 6, seed=1)
        reduced_cost = clustering_cost(result.points, solution.centers, z=1)
        # Map the chosen centers back to original coordinates via the stored
        # per-point shifts (centers are input points of P').
        center_indices = [
            int(np.argmin(np.linalg.norm(result.points - center, axis=1)))
            for center in solution.centers
        ]
        original_centers = blobs[center_indices]
        original_cost = clustering_cost(blobs, original_centers, z=1)
        assert reduced_cost == pytest.approx(original_cost, rel=0.05)

    def test_gaussian_data_essentially_untouched(self, blobs):
        # For low-spread data the grid side exceeds the diameter, so the
        # translation step is a no-op and only rounding can perturb points.
        result = reduce_spread(blobs, 6, seed=0)
        np.testing.assert_allclose(result.points, blobs, atol=max(result.granularity, 1e-9) * 2)

    def test_explicit_upper_bound_accepted(self, blobs):
        result = reduce_spread(blobs, 6, upper_bound=1e6, seed=0)
        assert result.upper_bound == pytest.approx(1e6)

    def test_cells_partition_points(self, blobs):
        result = reduce_spread(blobs, 6, seed=0)
        members = np.concatenate(list(result.cells.values()))
        assert sorted(members.tolist()) == list(range(blobs.shape[0]))


class TestInPlaceRounding:
    """``P'`` is rounded in place, with the same bytes as the expression
    ``np.round(points / g) * g``, including negative values and exact
    half-way ties (which round to even)."""

    @staticmethod
    def _reduce(points, granularity, spread=4.0):
        # With a supplied spread the granularity is U / (n^2 d log2(spread)),
        # so choosing U fixes it; the grid side sqrt(d) n^2 U then dwarfs
        # the data and the translation step moves nothing.
        n, d = points.shape
        upper_bound = granularity * n * n * d * np.log2(spread)
        result = reduce_spread(points, 3, upper_bound=upper_bound, spread=spread, seed=0)
        assert result.granularity == granularity
        assert not result.shifts.any()
        return result.points

    def test_exact_ties_round_to_even_like_the_expression(self):
        granularity = 2.0**-10
        halves = np.arange(-40, 40).reshape(-1, 2) + 0.5
        points = halves * granularity
        expected = np.round(points / granularity) * granularity
        assert expected.tobytes() == self._reduce(points.copy(), granularity).tobytes()
        # Half-way values went to the even neighbour on both signs.
        assert (np.round(halves) % 2 == 0).all()

    @pytest.mark.parametrize("seed", range(3))
    def test_negative_values_match_the_expression(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(300, 4)) * 50.0 - 20.0
        granularity = 0.037
        expected = np.round(points / granularity) * granularity
        reduced = self._reduce(points.copy(), granularity)
        assert reduced.tobytes() == expected.tobytes()
        assert (reduced < 0).any()
