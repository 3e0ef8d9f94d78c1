"""Golden equivalence tests: Z-order quadtree vs the frozen seed implementation.

The optimized :class:`repro.geometry.quadtree.QuadtreeEmbedding` (one
Z-order permutation with nested per-level cell ranges, a precomputed
distance table) must be *observationally identical* to the seed revision
under a fixed seed: same depth, the same partition at every level (the
seed's hash-rank labels and the tree's Z-order labels correspond one to
one), the same ``points_in_cell`` membership in ascending order, and
bit-identical tree distances.  The seed behaviour is pinned by the frozen
snapshot in :mod:`repro.reference.seed_hotpath`.
"""

import numpy as np
import pytest

from repro.geometry.quadtree import QuadtreeEmbedding
from repro.native import use_native
from repro.reference.seed_hotpath import SeedQuadtreeEmbedding
from repro.utils.rng import as_generator

from partition_helpers import assert_same_partition, cell_labels


def _dataset(case: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if case == "gaussian":
        return rng.normal(size=(500, 6)) * 10.0
    if case == "high_spread":
        near = rng.normal(size=(200, 3))
        far = rng.normal(size=(200, 3)) * 1e5 + 1e6
        return np.concatenate([near, far])
    if case == "duplicates":
        base = rng.normal(size=(60, 4))
        return np.concatenate([base, base[:30], np.zeros((10, 4))])
    if case == "low_dim":
        return rng.uniform(-3.0, 3.0, size=(400, 1))
    if case == "large_high_spread":
        # Deep levels hold 10k-20k cells, so grouping takes the sort path
        # with realistically filled (and duplicate-carrying) buckets.
        near = rng.normal(size=(10_000, 3))
        far = rng.normal(size=(10_000, 3)) * 1e5 + 1e6
        return np.concatenate([near, far])
    if case == "depth32_clamp":
        # With delta = 1e6 the fit draws this shift (seed 3).  Row 2 lands an
        # ulp below a level-0 cell boundary: its fractional part rounds to
        # exactly 1.0, whose 32-digit row must clamp to all ones (the cast of
        # 2**32 wraps to 0).  Row 3 sits 2**-41 cells below the boundary, so
        # the two rows share a cell down to level 32.
        shift = as_generator(seed).uniform(0.0, 1e6)
        return np.array(
            [
                [0.0, 0.0],
                [1e6, 0.0],
                [-(shift + np.spacing(shift))] * 2,
                [-shift - 1e6 * 2.0**-40] * 2,
            ]
        )
    raise AssertionError(case)


CASES = [
    ("gaussian", 0),
    ("gaussian", 7),
    ("high_spread", 1),
    ("duplicates", 2),
    ("low_dim", 3),
    ("large_high_spread", 5),
    ("depth32_clamp", 3),
]

#: Cases fitted with a fixed spread instead of the estimate (depth cap 32).
FIXED_SPREAD = {"depth32_clamp": 2.0**40}


# Run every golden comparison with the compiled kernel tier enabled AND
# forced to the pure-numpy fallbacks: both builds of the tree must
# reproduce the frozen seed.
@pytest.fixture(scope="module", params=[True, False], ids=["native", "fallback"])
def kernel_tier(request):
    with use_native(request.param):
        yield request.param


@pytest.fixture(scope="module", params=CASES, ids=[f"{c}-{s}" for c, s in CASES])
def pair(request, kernel_tier):
    case, seed = request.param
    points = _dataset(case, seed)
    spread = FIXED_SPREAD.get(case)
    if spread is None:
        optimized = QuadtreeEmbedding(seed=seed).fit(points)
        reference = SeedQuadtreeEmbedding(seed=seed).fit(points)
    else:
        optimized = QuadtreeEmbedding(seed=seed, spread=spread).fit(points)
        reference = SeedQuadtreeEmbedding(
            seed=seed, spread_function=lambda points, seed=None: spread
        ).fit(points)
    return points, optimized, reference


class TestGoldenEquivalence:
    def test_identical_depth_and_geometry(self, pair):
        _, optimized, reference = pair
        assert optimized.depth == reference.depth
        assert optimized.delta_ == reference.delta_
        np.testing.assert_array_equal(optimized.shift_, reference.shift_)

    def test_same_partition_as_seed(self, pair):
        _, optimized, reference = pair
        for level in range(reference.depth):
            assert_same_partition(
                cell_labels(optimized, level), reference.level_cell_ids_[level], f"level {level}"
            )

    def test_cell_of_names_the_cell_holding_the_point(self, pair):
        points, optimized, reference = pair
        n = points.shape[0]
        for level in range(reference.depth):
            labels = cell_labels(optimized, level)
            for point in np.unique(np.linspace(0, n - 1, num=min(n, 32)).astype(int)):
                assert optimized.cell_of(int(point), level) == labels[point]

    def test_identical_occupied_cell_counts(self, pair):
        _, optimized, reference = pair
        for level in range(reference.depth):
            assert optimized.occupied_cells(level) == reference.occupied_cells(level)

    def test_identical_points_in_cell_membership(self, pair):
        _, optimized, reference = pair
        for level in range(reference.depth):
            cells = reference.occupied_cells(level)
            members = [reference.points_in_cell(level, cell_id) for cell_id in range(cells)]
            # Cell sizes as a whole: the seed's, matched cell for cell
            # through each cell's first member.
            firsts = np.array([m[0] for m in members])
            sizes = np.diff(optimized.level_offsets_[level])
            labels = cell_labels(optimized, level)
            np.testing.assert_array_equal(sizes[labels[firsts]], [m.size for m in members])
            for cell_id in np.unique(np.linspace(0, cells - 1, num=min(cells, 64)).astype(int)):
                seed_members = members[cell_id]
                live = optimized.points_in_cell(level, optimized.cell_of(int(seed_members[0]), level))
                # Ascending input order, like the seed's.
                np.testing.assert_array_equal(live, seed_members)
            # Unused identifiers report empty membership on both sides.
            assert optimized.points_in_cell(level, 10**9).size == 0
            assert reference.points_in_cell(level, 10**9).size == 0

    def test_identical_tree_distances(self, pair):
        points, optimized, reference = pair
        n = points.shape[0]
        rng = np.random.default_rng(99)
        pairs = rng.integers(0, n, size=(400, 2))
        for i, j in pairs:
            i, j = int(i), int(j)
            assert optimized.deepest_shared_level(i, j) == reference.deepest_shared_level(i, j)
            # Bit-identical, not approximately equal: the distance table is
            # accumulated in the seed's summation order.
            assert optimized.tree_distance(i, j) == reference.tree_distance(i, j)

    def test_distance_table_matches_seed_sums(self, pair):
        _, optimized, reference = pair
        for level in range(-1, reference.depth):
            assert optimized.distance_from_shared_level(level) == reference.distance_from_shared_level(level)


class TestSeedHashCollision:
    """The seed labels a cell by the multilinear hash of its lattice row, and
    for equal coordinates that hash is ``lattice * sum(multipliers)``: at
    level 57 two rows 1e13 apart collide and the seed merges their cells.
    The tree partitions by the rows themselves and keeps them apart."""

    @pytest.mark.parametrize("native", [True, False], ids=["native", "numpy"])
    def test_distinct_lattice_rows_stay_apart(self, native):
        near = np.full((20, 4), 8.831370694455003)
        near[1, 0] = 23.0
        points = np.concatenate([near, near[:5] * 1e-4 + 1e13])
        with use_native(native):
            tree = QuadtreeEmbedding(seed=2, max_levels=60).fit(points)
        reference = SeedQuadtreeEmbedding(seed=2, max_levels=60).fit(points)
        level = 57
        assert reference.cell_of(0, level) == reference.cell_of(20, level)
        assert tree.cell_of(0, level) != tree.cell_of(20, level)
        # The two points part at level 2 in both trees, so their tree
        # distance agrees; the seed's merged cell still pulls the far points
        # into the near center's level-57 cell, where a sweep would read it.
        assert tree.deepest_shared_level(0, 20) == reference.deepest_shared_level(0, 20) == 1
        near_cell = [0, *range(2, 20)]
        np.testing.assert_array_equal(
            reference.points_in_cell(level, reference.cell_of(0, level)), near_cell + [20, 22, 23, 24]
        )
        np.testing.assert_array_equal(tree.points_in_cell(level, tree.cell_of(0, level)), near_cell)


class TestLemma22Invariant:
    """Property test: tree distances dominate Euclidean distances (Lemma 2.2)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_tree_distance_dominates_euclidean(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(300, 5)) * rng.uniform(0.1, 100.0)
        tree = QuadtreeEmbedding(seed=seed).fit(points)
        pairs = rng.integers(0, points.shape[0], size=(300, 2))
        for i, j in pairs:
            if i == j:
                continue
            euclidean = float(np.linalg.norm(points[i] - points[j]))
            assert tree.tree_distance(int(i), int(j)) >= euclidean - 1e-9 * max(1.0, euclidean)

    def test_holds_with_precomputed_spread(self):
        # The shared-spread path skips the per-tree estimate but must keep
        # the metric dominance intact.
        rng = np.random.default_rng(11)
        points = rng.normal(size=(250, 4)) * 50.0
        from repro.geometry.quadtree import compute_spread

        spread = compute_spread(points, seed=0)
        tree = QuadtreeEmbedding(seed=1, spread=spread).fit(points)
        for _ in range(200):
            i, j = rng.integers(0, points.shape[0], size=2)
            if i == j:
                continue
            euclidean = float(np.linalg.norm(points[i] - points[j]))
            assert tree.tree_distance(int(i), int(j)) >= euclidean - 1e-9 * max(1.0, euclidean)


class TestSharedSpreadStructure:
    def test_precomputed_spread_matches_unshared_partitions(self):
        # Passing the same spread value the fit would have computed produces
        # the same depth cap; only the generator stream differs (the shift is
        # drawn first, so with an identical scalar shift the cells coincide).
        rng = np.random.default_rng(4)
        points = rng.normal(size=(300, 3)) * 10.0
        baseline = QuadtreeEmbedding(seed=5).fit(points)
        from repro.geometry.quadtree import compute_spread

        generator = np.random.default_rng(5)
        generator.uniform(0.0, baseline.delta_)  # replay the shift draw
        spread = compute_spread(points, seed=generator)
        shared = QuadtreeEmbedding(seed=5, spread=spread).fit(points)
        assert shared.depth == baseline.depth
        np.testing.assert_array_equal(shared.order_, baseline.order_)
        for have, want in zip(shared.level_offsets_, baseline.level_offsets_):
            np.testing.assert_array_equal(have, want)
