"""Unit tests for repro.geometry.quadtree."""

import tracemalloc

import numpy as np
import pytest

from repro.geometry.quadtree import QuadtreeEmbedding, compute_spread
from repro.native import use_native


class TestComputeSpread:
    def test_two_points(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert compute_spread(points) == pytest.approx(1.0)

    def test_known_ratio(self):
        points = np.array([[0.0], [1.0], [100.0]])
        # max distance 100, min non-zero distance 1.
        assert compute_spread(points) == pytest.approx(100.0, rel=0.01)

    def test_single_point(self):
        assert compute_spread(np.zeros((1, 3))) == 1.0

    def test_identical_points(self):
        assert compute_spread(np.ones((10, 2))) == 1.0

    def test_sampled_estimate_close_to_exact(self, rng):
        points = rng.normal(size=(3000, 3))
        exact = compute_spread(points[:1500], sample_size=1500, seed=0)
        estimated = compute_spread(points[:1500], sample_size=400, seed=0)
        # The estimate may differ (min distance on a subsample is larger) but
        # must stay within a couple of orders of magnitude for log-use.
        assert np.log10(estimated) == pytest.approx(np.log10(exact), abs=1.5)


class TestQuadtreeEmbedding:
    @pytest.fixture(scope="class")
    def fitted(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(300, 4)) * 10
        tree = QuadtreeEmbedding(seed=0).fit(points)
        return points, tree

    def test_every_point_assigned_at_every_level(self, fitted):
        points, tree = fitted
        for level in range(tree.depth):
            offsets = tree.level_offsets_[level]
            assert offsets[0] == 0 and offsets[-1] == points.shape[0]

    def test_cell_counts_non_decreasing_with_depth(self, fitted):
        _, tree = fitted
        counts = [tree.occupied_cells(level) for level in range(tree.depth)]
        assert counts == sorted(counts)

    def test_root_level_has_few_cells(self, fitted):
        _, tree = fitted
        # Level 0 cells have side 2 * delta, so at most 2^d cells are occupied;
        # in practice the count is tiny.
        assert tree.occupied_cells(0) <= 2 ** tree.dimension_

    def test_cell_side_halves_per_level(self, fitted):
        _, tree = fitted
        assert tree.cell_side(3) == pytest.approx(tree.cell_side(2) / 2)

    def test_tree_distance_dominates_euclidean(self, fitted):
        # Lemma 2.2 lower bound: ||p - q|| <= d_T(p, q).
        points, tree = fitted
        rng = np.random.default_rng(1)
        for _ in range(200):
            i, j = rng.integers(0, points.shape[0], size=2)
            if i == j:
                continue
            euclidean = np.linalg.norm(points[i] - points[j])
            assert tree.tree_distance(int(i), int(j)) >= euclidean - 1e-6

    def test_tree_distance_symmetric_and_zero_on_diagonal(self, fitted):
        _, tree = fitted
        assert tree.tree_distance(5, 5) == 0.0
        assert tree.tree_distance(3, 7) == pytest.approx(tree.tree_distance(7, 3))

    def test_points_in_cell_lookup(self, fitted):
        points, tree = fitted
        level = min(2, tree.depth - 1)
        cell = tree.cell_of(0, level)
        members = tree.points_in_cell(level, cell)
        assert 0 in members.tolist()

    def test_unknown_cell_returns_empty(self, fitted):
        _, tree = fitted
        assert tree.points_in_cell(0, 10**9).size == 0

    def test_identical_points_single_cell(self):
        points = np.ones((20, 3))
        tree = QuadtreeEmbedding(seed=0).fit(points)
        assert tree.occupied_cells(0) == 1
        assert tree.tree_distance(0, 5) == 0.0

    @pytest.mark.parametrize("native", [True, False], ids=["native", "numpy"])
    def test_zero_width_points_share_one_cell_per_level(self, native):
        with use_native(native):
            tree = QuadtreeEmbedding(seed=0).fit(np.zeros((5, 0)))
        np.testing.assert_array_equal(tree.order_, np.arange(5))
        assert all(list(offsets) == [0, 5] for offsets in tree.level_offsets_)

    def test_max_levels_cap_respected(self):
        rng = np.random.default_rng(2)
        points = np.concatenate([rng.normal(size=(50, 2)), rng.normal(size=(50, 2)) * 1e6])
        tree = QuadtreeEmbedding(max_levels=5, seed=0).fit(points)
        assert tree.depth <= 6

    def test_deepest_shared_level_refines_for_close_points(self):
        points = np.array([[0.0, 0.0], [0.001, 0.001], [50.0, 50.0]])
        tree = QuadtreeEmbedding(seed=3).fit(points)
        close = tree.deepest_shared_level(0, 1)
        far = tree.deepest_shared_level(0, 2)
        assert close >= far


class TestInt32LevelArrays:
    """Every tree stores int32 arrays in both kernel tiers: one order, its
    inverse and one offsets array per level, read by the Fast-kmeans++
    sweep without a copy."""

    @pytest.mark.parametrize("native", [True, False], ids=["native", "numpy"])
    def test_tree_arrays_are_contiguous_int32(self, native):
        points = np.random.default_rng(4).normal(size=(3000, 5))
        with use_native(native):
            tree = QuadtreeEmbedding(seed=1).fit(points)
        assert tree.depth > 2
        for array in (tree.order_, tree.position_, *tree.level_offsets_):
            assert array.dtype == np.int32
            assert array.flags["C_CONTIGUOUS"]

    @pytest.mark.parametrize("native", [True, False], ids=["native", "numpy"])
    def test_tree_bytes_are_four_per_entry(self, native):
        # 4 (2n + sum_l (cells_l + 1)) bytes: the order and its inverse
        # once, and one offset per cell plus the end per level.
        n = 2500
        points = np.random.default_rng(5).normal(size=(n, 3))
        with use_native(native):
            tree = QuadtreeEmbedding(seed=2).fit(points)
        stored = sum(array.nbytes for array in (tree.order_, tree.position_, *tree.level_offsets_))
        entries = 2 * n + sum(tree.occupied_cells(level) + 1 for level in range(tree.depth))
        assert stored == 4 * entries


    def test_more_points_than_int32_indexes_are_rejected_up_front(self):
        # 2**31 rows broadcast from one: the shape check must fire before
        # validation materialises anything of size n.
        points = np.broadcast_to(np.zeros((1, 2)), (2**31, 2))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="int32"):
                QuadtreeEmbedding(seed=0).fit(points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestZOrderLayout:
    """Every level's cells are contiguous ranges of one order, nested in
    their parents' ranges, and ``position_`` inverts the order."""

    @pytest.fixture(
        scope="class",
        params=[(True, "gaussian"), (False, "gaussian"), (True, "duplicates"), (False, "duplicates")],
        ids=["native-gaussian", "numpy-gaussian", "native-duplicates", "numpy-duplicates"],
    )
    def fitted(self, request):
        native, case = request.param
        points = np.random.default_rng(6).normal(size=(2000, 4)) * 10.0
        if case == "duplicates":
            points[::3] = points[5]
        with use_native(native):
            return points, QuadtreeEmbedding(seed=3).fit(points)

    def test_order_is_a_permutation_and_position_inverts_it(self, fitted):
        _, tree = fitted
        n = tree.n_points_
        np.testing.assert_array_equal(np.sort(tree.order_), np.arange(n))
        np.testing.assert_array_equal(tree.position_[tree.order_], np.arange(n))
        np.testing.assert_array_equal(tree.order_[tree.position_], np.arange(n))

    def test_cells_are_nonempty_ranges_covering_the_order(self, fitted):
        _, tree = fitted
        for offsets in tree.level_offsets_:
            assert offsets[0] == 0 and offsets[-1] == tree.n_points_
            assert (np.diff(offsets) > 0).all()

    def test_every_cell_nests_in_one_parent_range(self, fitted):
        # A child range crosses no parent boundary: every parent boundary
        # is also a child boundary.
        _, tree = fitted
        for parent, child in zip(tree.level_offsets_, tree.level_offsets_[1:]):
            assert np.isin(parent, child).all()

    def test_points_in_cell_is_the_sorted_range(self, fitted):
        _, tree = fitted
        level = tree.depth // 2
        offsets = tree.level_offsets_[level]
        for cell in range(0, offsets.shape[0] - 1, max(1, (offsets.shape[0] - 1) // 40)):
            members = tree.points_in_cell(level, cell)
            np.testing.assert_array_equal(
                members, np.sort(tree.order_[offsets[cell] : offsets[cell + 1]])
            )
            assert all(tree.cell_of(int(point), level) == cell for point in members)

    def test_children_follow_the_digit_pattern_then_input_order(self, fitted):
        # Along the order, the pair (parent cell, digit pattern) never
        # decreases, where bit j of the pattern is coordinate j's digit
        # (2 * parent lattice + digit = child lattice); within one cell of
        # the deepest level the points keep their input order.
        points, tree = fitted
        shifted = points - tree.origin_ + tree.shift_
        for level in range(1, tree.depth):
            parent = np.floor(shifted / tree.cell_side(level - 1)).astype(np.int64)
            child = np.floor(shifted / tree.cell_side(level)).astype(np.int64)
            pattern = ((child - 2 * parent) << np.arange(points.shape[1])).sum(axis=1)
            parents = np.searchsorted(tree.level_offsets_[level - 1], np.arange(tree.n_points_), "right")
            key = parents * 2 ** points.shape[1] + pattern[tree.order_]
            assert (np.diff(key) >= 0).all(), level
        leaves = np.searchsorted(tree.level_offsets_[-1], np.arange(tree.n_points_), "right")
        same_leaf = np.diff(leaves) == 0
        assert (np.diff(tree.order_)[same_leaf] > 0).all()
