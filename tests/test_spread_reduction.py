"""Unit tests for repro.core.spread_reduction (Algorithms 2 and 3)."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.clustering.cost import clustering_cost
from repro.clustering.kmeans_pp import kmeans_plus_plus
from repro.core import spread_reduction
from repro.core.spread_reduction import (
    CrudeApproximation,
    crude_cost_upper_bound,
    reduce_spread,
)
from repro.data.synthetic import gaussian_mixture, high_spread_dataset
from repro.geometry.grid import random_grid_shift
from repro.native.registry import use_native


def _two_far_groups():
    """Three tight clusters near the origin and three 1e5 away: 240 rows."""
    rng = np.random.default_rng(3)
    centres = np.concatenate(
        [rng.uniform(0, 10, (3, 3)), 1e5 + rng.uniform(0, 10, (3, 3))]
    )
    return np.concatenate(
        [centre + rng.normal(scale=1e-9, size=(40, 3)) for centre in centres]
    )


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

    @pytest.mark.parametrize(
        "case, expected",
        [
            ("blobs", (2881132.2885329085, 3)),
            ("offset", (1440566.1442751011, 4)),
            ("two_far", (0.0001309705780771164, 43)),
        ],
    )
    def test_bounds_whose_lattices_fit_are_pinned(self, blobs, case, expected):
        # Recorded before the int64 cap: it changes no bound that fitted.
        points, k = {
            "blobs": (blobs, 6),
            "offset": (blobs + 1e9, 6),
            "two_far": (_two_far_groups(), 10),
        }[case]
        approx = crude_cost_upper_bound(points, k, seed=0)
        assert (approx.upper_bound, approx.level) == expected

    def test_bound_dominates_optimum_when_deep_lattices_overflow(self):
        # The tight cluster puts the spread estimate near 1.7e20, so the
        # search would start at level 70, where floor(scaled * 2**70) no
        # longer fits int64: the wrapped lattice read at most k cells and
        # the bound came out near 7e-9, far below the optimum.
        rng = np.random.default_rng(0)
        clusters = [rng.normal(size=(100, 3)) * 1e-11]
        for _ in range(19):
            clusters.append(rng.uniform(-1e8, 1e8, 3) + rng.normal(size=(100, 3)))
        points = np.concatenate(clusters)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            approx = crude_cost_upper_bound(points, 10, seed=1)
        best = min(
            clustering_cost(points, kmeans_plus_plus(points, 10, z=1, seed=seed).centers, z=1)
            for seed in range(5)
        )
        assert approx.level <= 62
        assert approx.upper_bound >= best

    def test_level_zero_bound_when_no_lattice_fits(self):
        # Identical points floor the diameter at 1e-12, so 1e7 lies about
        # 1e19 diameters from the grid's origin: past int64 at level 0.
        points = np.full((50, 2), 1e7)
        approx = crude_cost_upper_bound(points, 3, seed=0)
        assert (approx.level, approx.calls) == (0, 0)
        assert approx.upper_bound == 50 * math.sqrt(2) * 8.0 * approx.diameter


def _outlier_mixture():
    """The e2e closed-loop input at 20k rows: a 50-cluster mixture whose
    first 20 rows are moved 1e4 away on axis 0."""
    points = gaussian_mixture(20_000, 10, n_clusters=50, gamma=1.0, seed=4).points
    points[:20, 0] += 1e4
    return points


class TestCappedProbe:
    """The probe counts cells only up to ``k + 1``; the search cannot tell."""

    @pytest.mark.parametrize(
        "case, k",
        [("outlier_mixture", 200), ("offset", 6), ("duplicates", 3)],
    )
    def test_search_matches_the_uncapped_count(self, blobs, case, k, monkeypatch):
        points = {
            "outlier_mixture": _outlier_mixture,
            "offset": lambda: blobs + 1e8,
            "duplicates": lambda: np.full((300, 4), 2.5),
        }[case]()
        capped = crude_cost_upper_bound(points, k, seed=4)
        probe = spread_reduction.get_kernel("crude_bound_probe")
        if probe is None:
            probe = spread_reduction.reference_crude_bound_probe
        counts = []

        def uncapped(points, shift, diameter, level, multipliers, cap):
            counts.append(probe(points, shift, diameter, level, multipliers, points.shape[0]))
            return counts[-1]

        monkeypatch.setattr(spread_reduction, "get_kernel", lambda name: uncapped)
        full = crude_cost_upper_bound(points, k, seed=4)
        assert (capped.level, capped.calls, capped.upper_bound) == (
            full.level,
            full.calls,
            full.upper_bound,
        )
        if case == "outlier_mixture":
            # Some probe counted past the cap, so the cap was exercised.
            assert max(counts) > k + 1


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

    def test_only_an_axis_with_a_wide_gap_moves(self):
        # With r = 1, axis 0 has a gap of about 10 cells and moves the far
        # pair; axis 1 spans at most one lattice step and stays put.
        points = np.array([[0.0, 0.0], [0.5, 0.5], [10.0, 0.25], [10.2, 0.75]])
        upper_bound = 1.0 / (np.sqrt(2) * 16)
        result = reduce_spread(points, 1, upper_bound=upper_bound, spread=16.0, seed=0)
        assert result.cell_side == pytest.approx(1.0)
        assert not result.shifts[:2].any() and not result.shifts[:, 1].any()
        assert (result.shifts[2:, 0] > 6.0).all()
        assert np.ptp(result.points[:, 0]) < 4.0

    def test_two_far_groups_bytes_are_pinned(self):
        # Recorded with the per-cell walk over hashed grid cells; half of
        # the rows move, so the translation itself is pinned.
        result = reduce_spread(_two_far_groups(), 10, seed=0)
        assert int((result.shifts != 0).any(axis=1).sum()) == 120
        digest = hashlib.sha256(result.points.tobytes() + result.shifts.tobytes()).hexdigest()
        assert digest == "19208a2ee4d5d7f9e313087f5cea87117ac6566b0b25a507dc27064d0ca620dc"


def _per_cell_walk(points, upper_bound, spread, seed):
    """Oracle: Reduce-Spread as a walk over the occupied cells.

    Groups the points by exact lattice row, sorts the cell centres along
    each axis, closes every gap of at least ``2r`` down to ``2r`` and moves
    each cell by the running total, then rounds to the granularity.
    """
    n, d = points.shape
    side = math.sqrt(d) * float(n) ** 2 * upper_bound
    shift = random_grid_shift(d, side, seed=np.random.default_rng(seed))
    lattice = np.floor((points - shift) / side).astype(np.int64)
    rows, members = np.unique(lattice, axis=0, return_inverse=True)
    members = members.reshape(-1)
    centres = (rows + 0.5) * side + shift
    reduced = points.copy()
    shifts = np.zeros_like(points)
    for coordinate in range(d):
        cumulative, previous = 0.0, None
        for cell in np.argsort(centres[:, coordinate], kind="stable"):
            value = centres[cell, coordinate]
            if previous is not None and value - previous >= 2.0 * side:
                cumulative += value - previous - 2.0 * side
            previous = value
            if cumulative > 0.0:
                reduced[members == cell, coordinate] -= cumulative
                shifts[members == cell, coordinate] += cumulative
    log_delta = max(1.0, math.log2(max(spread, 2.0)))
    granularity = upper_bound / (float(n) ** 2 * float(d) * log_delta)
    if granularity > np.abs(reduced).max() * 1e-12:
        reduced = np.round(reduced / granularity) * granularity
    return reduced, shifts


@st.composite
def _translation_cases(draw):
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 12))
    points = draw(
        arrays(
            np.float64,
            (n, d),
            elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
        )
    )
    # A coarse quantum makes many rows share a lattice value on an axis.
    quantum = draw(st.sampled_from([None, 1.0, 37.5]))
    if quantum is not None:
        points = np.round(points / quantum) * quantum
    # The grid side r = sqrt(d) n^2 U runs from 1e-3 to 1e3 times the
    # larger of the data span and 1.
    ratio = 10.0 ** draw(st.floats(-3.0, 3.0))
    span = max(float(np.ptp(points)), 1.0)
    upper_bound = ratio * span / (math.sqrt(d) * n * n)
    return points, upper_bound, draw(st.integers(0, 2**16))


class TestPerCoordinateTranslation:
    """Translating one coordinate at a time gives the per-cell walk's bytes."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(case=_translation_cases())
    def test_matches_the_per_cell_walk(self, case):
        points, upper_bound, seed = case
        spread = 64.0
        result = reduce_spread(points, 1, upper_bound=upper_bound, spread=spread, seed=seed)
        expected_points, expected_shifts = _per_cell_walk(points, upper_bound, spread, seed)
        assert result.shifts.tobytes() == expected_shifts.tobytes()
        assert result.points.tobytes() == expected_points.tobytes()


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
