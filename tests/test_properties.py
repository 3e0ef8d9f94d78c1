"""Property-based tests (hypothesis) for core invariants of the library.

The strategies generate small random point clouds and weight vectors; the
properties checked are the paper-level invariants that must hold for *every*
input, not just the fixtures: unbiased weight totals, cost-estimator
consistency, quadtree metric domination, lattice-row hashing, and the
coreset composition property.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.clustering.kmeans_pp import kmeans_plus_plus
from repro.core import (
    FastCoreset,
    LightweightCoreset,
    SensitivitySampling,
    UniformSampling,
    merge_coresets,
)
from repro.core.sensitivity import sensitivity_scores
from repro.geometry.grid import hash_rows
from repro.geometry.quadtree import QuadtreeEmbedding
from repro.native import use_native
from repro.parallel import shard_bounds
from repro.utils.rng import as_seed_sequence, keyed_seed_sequence

from hypothesis_settings import SETTINGS
from partition_helpers import (
    assert_refines,
    assert_same_partition,
    cell_labels,
    lattice_labels,
    lattice_rows,
)

points_strategy = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(20, 120), st.integers(2, 6)),
    elements=st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False, width=64),
)


def _deduplicate(points: np.ndarray) -> np.ndarray:
    """Add a deterministic jitter so degenerate all-equal inputs stay valid."""
    jitter = np.linspace(0.0, 1e-3, points.size).reshape(points.shape)
    return points + jitter


class TestSamplerProperties:
    @SETTINGS
    @given(points=points_strategy, seed=st.integers(0, 10_000))
    def test_uniform_sampling_weight_total_is_exact(self, points, seed):
        points = _deduplicate(points)
        m = max(1, points.shape[0] // 3)
        coreset = UniformSampling(seed=seed).sample(points, m)
        assert coreset.total_weight == pytest.approx(points.shape[0], rel=1e-9)
        assert (coreset.weights > 0).all()

    @SETTINGS
    @given(points=points_strategy, seed=st.integers(0, 10_000))
    def test_lightweight_coreset_weights_positive_and_bounded(self, points, seed):
        points = _deduplicate(points)
        m = max(1, points.shape[0] // 3)
        coreset = LightweightCoreset(seed=seed).sample(points, m)
        assert (coreset.weights > 0).all()
        # No single point may represent more than the whole dataset by a huge
        # factor: the +1/n term in the scores lower-bounds every probability.
        assert coreset.total_weight <= points.shape[0] * 10

    @SETTINGS
    @given(points=points_strategy, seed=st.integers(0, 10_000))
    def test_sensitivity_coreset_points_are_input_rows(self, points, seed):
        points = _deduplicate(points)
        k = min(5, points.shape[0] - 1)
        m = max(1, points.shape[0] // 3)
        coreset = SensitivitySampling(k=max(1, k), seed=seed).sample(points, m)
        assert coreset.indices is not None
        np.testing.assert_allclose(coreset.points, points[coreset.indices])

    @SETTINGS
    @given(points=points_strategy, seed=st.integers(0, 1_000))
    def test_fast_coreset_weights_non_negative(self, points, seed):
        points = _deduplicate(points)
        k = min(4, max(1, points.shape[0] // 10))
        m = max(2, points.shape[0] // 4)
        coreset = FastCoreset(k=k, seed=seed).sample(points, m)
        assert (coreset.weights >= 0).all()
        assert coreset.size >= m  # sampling with replacement keeps exactly m (or more with correction)

    @SETTINGS
    @given(points=points_strategy, seed=st.integers(0, 10_000))
    def test_sensitivity_scores_per_cluster_normalisation(self, points, seed):
        points = _deduplicate(points)
        k = min(4, max(1, points.shape[0] // 8))
        solution = kmeans_plus_plus(points, k, seed=seed)
        scores = sensitivity_scores(points, solution)
        assert (scores >= 0).all()
        total = scores.sum()
        occupied = np.unique(solution.assignment).shape[0]
        # Each occupied cluster contributes exactly 1 from the 1/|C| terms and
        # at most 1 from the cost-share terms (exactly 1 unless the cluster
        # has zero cost, e.g. it only contains its own center).
        assert occupied - 1e-6 <= total <= 2.0 * occupied + 1e-6


class TestQuadtreeCellsAreLatticeRows:
    """Every level's cells are exactly the level's lattice rows: points
    share a cell if and only if ``floor(shifted / side)`` agrees in every
    coordinate, in both kernel tiers, for arbitrary shapes, depth caps and
    coincident points (no hash anywhere in the check)."""

    @pytest.mark.parametrize("native", [True, False], ids=["native", "numpy"])
    @SETTINGS
    @given(
        points=points_strategy,
        seed=st.integers(0, 10_000),
        max_levels=st.integers(2, 40),
        scale=st.sampled_from([1e-6, 1.0, 1e6]),
        duplicate=st.booleans(),
    )
    def test_cells_are_the_exact_lattice_rows(
        self, native, points, seed, max_levels, scale, duplicate
    ):
        points = points * scale
        if duplicate:
            # Coincident points: repeated rows plus an exactly-zero block.
            points = np.concatenate(
                [points, points[: points.shape[0] // 2], np.zeros((7, points.shape[1]))]
            )
        with use_native(native):
            tree = QuadtreeEmbedding(seed=seed, max_levels=max_levels).fit(points)
        for level in range(tree.depth):
            assert_same_partition(
                cell_labels(tree, level), lattice_labels(points, tree, level), f"level {level}"
            )

    @SETTINGS
    @given(points=points_strategy, seed=st.integers(0, 10_000), exponent=st.integers(6, 13))
    def test_deep_trees_match_seed_reference(self, points, seed, exponent):
        """High-spread inputs (deep caps, past the compiled build's 32
        levels) still reproduce the seed's cells: the exact lattice rows,
        which the seed labels by their multilinear hash.  Where that hash
        merges two distinct rows (it can at deep levels, where lattice
        differences carry high powers of two), the seed's cell is the union
        of the tree's.  The cap stays below 62 levels — past that the
        *seed's* own float-to-int64 lattice cast overflows, so no
        implementation is defined there.
        """
        from repro.reference.seed_hotpath import SeedQuadtreeEmbedding

        far = points[: max(2, points.shape[0] // 4)] * 1e-4 + 10.0**exponent
        points = np.concatenate([points, far])
        live = QuadtreeEmbedding(seed=seed, max_levels=60).fit(points)
        reference = SeedQuadtreeEmbedding(seed=seed, max_levels=60).fit(points)
        assert live.depth == reference.depth
        for level in range(live.depth):
            labels = cell_labels(live, level)
            rows = lattice_rows(points, live, level)
            assert_same_partition(labels, lattice_labels(points, live, level), f"level {level}")
            if np.unique(hash_rows(rows)).size == np.unique(rows, axis=0).shape[0]:
                assert_same_partition(labels, reference.level_cell_ids_[level], f"level {level}")
            else:
                assert_refines(labels, reference.level_cell_ids_[level], f"level {level}")


class TestCompositionProperties:
    @SETTINGS
    @given(points=points_strategy, seed=st.integers(0, 10_000))
    def test_merge_preserves_total_weight(self, points, seed):
        points = _deduplicate(points)
        half = points.shape[0] // 2
        first = UniformSampling(seed=seed).sample(points[:half], max(1, half // 2))
        second = UniformSampling(seed=seed + 1).sample(points[half:], max(1, (points.shape[0] - half) // 2))
        merged = merge_coresets([first, second])
        assert merged.total_weight == pytest.approx(first.total_weight + second.total_weight)

    @SETTINGS
    @given(points=points_strategy, seed=st.integers(0, 10_000))
    def test_merge_cost_estimate_is_sum_of_parts(self, points, seed):
        points = _deduplicate(points)
        half = points.shape[0] // 2
        rng = np.random.default_rng(seed)
        centers = points[rng.choice(points.shape[0], size=min(3, points.shape[0]), replace=False)]
        first = UniformSampling(seed=seed).sample(points[:half], max(1, half // 2))
        second = UniformSampling(seed=seed + 1).sample(points[half:], max(1, (points.shape[0] - half) // 2))
        merged = merge_coresets([first, second])
        assert merged.cost(centers) == pytest.approx(first.cost(centers) + second.cost(centers), rel=1e-9)


class TestGeometryProperties:
    @SETTINGS
    @given(points=points_strategy, seed=st.integers(0, 10_000))
    def test_quadtree_distances_dominate_euclidean(self, points, seed):
        points = _deduplicate(points)
        tree = QuadtreeEmbedding(seed=seed).fit(points)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            i, j = rng.integers(0, points.shape[0], size=2)
            if i == j:
                continue
            euclidean = float(np.linalg.norm(points[i] - points[j]))
            assert tree.tree_distance(int(i), int(j)) >= euclidean - 1e-6

    @SETTINGS
    @given(
        lattice=arrays(
            dtype=np.int64,
            shape=st.tuples(st.integers(1, 200), st.integers(1, 6)),
            elements=st.integers(-10**6, 10**6),
        )
    )
    def test_hash_rows_consistent_with_row_equality(self, lattice):
        keys = hash_rows(lattice)
        # Equal rows always hash equally (collisions of distinct rows are
        # possible in principle but never the other way around).
        _, inverse = np.unique(lattice, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        for group in range(inverse.max() + 1):
            group_keys = keys[inverse == group]
            assert np.unique(group_keys).shape[0] == 1


class TestShardBoundsProperties:
    """Hypothesis pins the sharding invariants the seed protocol rests on."""

    @SETTINGS
    @given(n=st.integers(1, 5000), n_shards=st.integers(1, 64))
    def test_bounds_partition_range_exactly(self, n, n_shards):
        bounds = shard_bounds(n, n_shards)
        # Exact, contiguous cover of [0, n): starts at 0, ends at n, each
        # shard begins where the previous one stopped.
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        assert all(
            previous_stop == start
            for (_, previous_stop), (start, _) in zip(bounds, bounds[1:])
        )
        sizes = [stop - start for start, stop in bounds]
        assert sum(sizes) == n

    @SETTINGS
    @given(n=st.integers(1, 5000), n_shards=st.integers(1, 64))
    def test_bounds_are_nonempty_and_balanced_within_one(self, n, n_shards):
        sizes = [stop - start for start, stop in shard_bounds(n, n_shards)]
        assert len(sizes) == min(n, n_shards)
        assert min(sizes) >= 1
        assert max(sizes) - min(sizes) <= 1
        assert max(sizes) == int(np.ceil(n / min(n, n_shards)))
        # array_split semantics: the extra rows go to the leading shards.
        assert sizes == sorted(sizes, reverse=True)


class TestKeyedSeedProperties:
    """The spawn-keyed derivation is injective and stateless."""

    @SETTINGS
    @given(
        entropy=st.integers(0, 2**63 - 1),
        keys=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 10_000)),
            min_size=2,
            max_size=12,
            unique=True,
        ),
    )
    def test_keyed_seeds_injective_across_key_shard_pairs(self, entropy, keys):
        root = as_seed_sequence(entropy)
        states = [
            tuple(int(word) for word in keyed_seed_sequence(root, namespace, index).generate_state(4))
            for namespace, index in keys
        ]
        # Distinct (namespace, shard) pairs must receive distinct streams —
        # and none of them may collide with the root's own stream.
        states.append(tuple(int(word) for word in root.generate_state(4)))
        assert len(set(states)) == len(states)

    @SETTINGS
    @given(
        entropy=st.integers(0, 2**63 - 1),
        namespace=st.integers(0, 7),
        index=st.integers(0, 10_000),
        unrelated_spawns=st.integers(0, 5),
    )
    def test_keyed_seeds_are_stateless(self, entropy, namespace, index, unrelated_spawns):
        root = as_seed_sequence(entropy)
        first = keyed_seed_sequence(root, namespace, index).generate_state(4)
        # Unlike SeedSequence.spawn, the derivation must not depend on how
        # many children were spawned before (that is what makes shard i's
        # randomness independent of scheduling).
        root.spawn(unrelated_spawns)
        second = keyed_seed_sequence(root, namespace, index).generate_state(4)
        np.testing.assert_array_equal(first, second)
