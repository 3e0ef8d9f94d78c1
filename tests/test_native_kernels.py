"""Tests for the compiled kernel tier (:mod:`repro.native`).

Three layers of coverage:

* **Kernel contracts** — every native kernel is compared bit-for-bit against
  a live numpy oracle (the same expressions the engine's fallback path
  evaluates), including Hypothesis-generated adversarial inputs for the
  CSR grouping kernel and k-means++ seeding.
* **Tier control** — ``native_status()`` introspection, the ``use_native``
  override, the behaviour of :func:`repro.native.get_kernel` in fallback
  mode, and the reasons reported when the provider is unavailable or a
  kernel fails its verifier.
* **Cross-mode bit-identity** — full k-means runs and quadtree fits must
  produce identical observable outputs with the tier enabled and disabled.
  ``recompute_fraction`` is deliberately *excluded* from the comparison:
  the native candidate-evaluation kernel may resolve suspects the numpy
  path recomputes, so the internal work counter is allowed to differ while
  every observable output stays pinned.

When the cc provider is unavailable (no C compiler, or ``REPRO_NATIVE=0``)
the kernel-contract tests skip; the tier-control and cross-mode tests still
run, because the fallback path must behave identically either way.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import observability
from repro.cli import main as cli_main
from repro.clustering.fast_kmeans_pp import fast_kmeans_plus_plus
from repro.clustering.kmeans_pp import kmeans_plus_plus
from repro.clustering.lloyd import kmeans
from repro.core.fast_coreset import FastCoreset
from repro.core.sensitivity import SensitivitySampling
from repro.core.spread_reduction import crude_cost_upper_bound
from repro.data.synthetic import gaussian_mixture
from repro.geometry.grid import _hash_multipliers
from repro.geometry.quadtree import QuadtreeEmbedding
from repro.native import (
    get_kernel,
    kernel_demotions,
    kernel_provider,
    native_status,
    reference_candidate_eval,
    reference_crude_bound_probe,
    reference_fkpp_draw_scan,
    reference_fkpp_level_score,
    reference_fkpp_weighted_draw,
    reference_kmeanspp_round,
    reference_quadtree_keys,
    registry,
    use_native,
)
from repro.native.kernels import _reference_csr_group, _verify_csr_group, quadtree_key_points

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

requires_native = pytest.mark.skipif(
    native_status()["tier"] != "native",
    reason="the cc kernel provider is unavailable (no C compiler, or REPRO_NATIVE=0)",
)

uint64_keys = arrays(
    dtype=np.uint64,
    shape=st.integers(0, 300),
    elements=st.integers(0, np.iinfo(np.uint64).max),
)
# Small alphabets force long duplicate runs — the hash fast path of the
# grouping kernel and the trivial-pass skip of its radix sort.
clustered_keys = arrays(
    dtype=np.uint64,
    shape=st.integers(1, 300),
    elements=st.integers(0, 9),
)


@st.composite
def prefixed_keys(draw):
    """Up to a few thousand keys sharing a random high prefix.

    Few low bits give duplicate-heavy inputs (the hash path, or buckets full
    of equal keys once the distinct count passes n/8); many give the sort
    path's realistic buckets.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 3000))
    low_bits = draw(st.integers(1, 63))
    prefix = (int(rng.integers(0, 2**63)) << low_bits) % 2**64
    return np.uint64(prefix) + rng.integers(0, 1 << low_bits, size=n, dtype=np.uint64)


#: A key with the top bit set.  With fewer than 512 keys the grouping
#: kernel's sort path buckets on at most the word's top five bits, so next
#: to this key every key below ``2**59`` shares bucket 0.
OUTLIER = np.uint64(1 << 63)


def _with_outlier(crowd, at):
    return np.insert(crowd, at, OUTLIER)


@st.composite
def crowded_keys(draw):
    """97-500 keys below ``2**59`` plus :data:`OUTLIER` at a random position.

    Few low bits give few distinct keys (the hash path, whose radix sort
    ranks them); many give a sort-path bucket 0 past the insertion cap.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(97, 500))
    crowd = rng.integers(0, 1 << draw(st.integers(1, 59)), size=n, dtype=np.uint64)
    return _with_outlier(crowd, draw(st.integers(0, n)))


@st.composite
def kmeanspp_inputs(draw):
    """``(points, k, weights, z, seed)`` for k-means++ across the skip rule.

    Blobs give the kernel points to skip; duplicate rows and zero weights
    give ties and zero mass; the ``2**e`` scale spans subnormal squared
    distances (e = -520) to overflowing ones (e = 510).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 200))
    d = draw(st.integers(1, 20))
    k = draw(st.integers(1, n))
    centers = rng.normal(size=(draw(st.integers(1, 8)), d)) * 10.0 ** draw(st.integers(0, 4))
    points = centers[rng.integers(0, centers.shape[0], size=n)] + rng.normal(size=(n, d))
    duplicates = rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.8]))
    points[duplicates] = points[rng.integers(0, n)]
    points *= 2.0 ** draw(st.integers(-520, 510))
    weights = None
    if draw(st.booleans()):
        weights = rng.uniform(0.0, 3.0, size=n)
        weights[rng.random(n) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    return points, k, weights, draw(st.sampled_from([1, 2])), draw(st.integers(0, 2**16))


@requires_native
class TestCsrGroupKernel:
    """The fused grouping kernel vs the numpy pipeline it replaces."""

    def _check(self, keys):
        from repro.geometry.quadtree import _csr_group

        kernel = get_kernel("csr_group")
        assert kernel is not None
        produced = kernel(np.ascontiguousarray(keys))
        with use_native(False):
            fallback = _csr_group(keys)
        expected = _reference_csr_group(keys)
        for name, have, numpy_path, want in zip(
            ("cell_ids", "order", "offsets"), produced, fallback, expected
        ):
            # Both tiers hand the quadtree its int32 level arrays as is.
            assert have.dtype == np.int32 and numpy_path.dtype == np.int32, name
            np.testing.assert_array_equal(have, want, err_msg=name)
            np.testing.assert_array_equal(numpy_path, want, err_msg=name)

    @SETTINGS
    @given(keys=clustered_keys)
    def test_duplicate_heavy_hash_path(self, keys):
        self._check(keys)

    @SETTINGS
    @given(keys=uint64_keys.filter(lambda a: a.size >= 2))
    def test_scattered_keys_radix_path(self, keys):
        self._check(keys)

    @SETTINGS
    @given(keys=prefixed_keys())
    def test_prefixed_keys_both_paths(self, keys):
        self._check(keys)

    def test_distinct_count_around_hash_abort_threshold(self):
        # The hash path aborts to the sort path once the distinct count
        # crosses n >> 3; straddle the threshold on both sides.
        rng = np.random.default_rng(1)
        for alphabet in (30, 32, 34, 64, 256):
            self._check(rng.integers(0, alphabet, size=256, dtype=np.uint64))

    def test_thousands_of_uniform_keys(self):
        rng = np.random.default_rng(3)
        for n in (2000, 4096, 5000):
            self._check(rng.integers(0, np.iinfo(np.uint64).max, size=n, dtype=np.uint64))

    def test_keys_sharing_their_top_40_bits(self):
        # The buckets key on the bits below the highest differing bit, not
        # on the (constant) top of the word.
        rng = np.random.default_rng(4)
        prefix = np.uint64(0x9E3779B97F << 24)
        self._check(prefix + rng.integers(0, 1 << 24, size=3000, dtype=np.uint64))

    def test_one_bucket_holds_most_keys(self):
        rng = np.random.default_rng(5)
        crowded = rng.integers(0, 1 << 40, size=2700, dtype=np.uint64)
        spread = rng.integers(0, np.iinfo(np.uint64).max, size=300, dtype=np.uint64)
        self._check(rng.permutation(np.concatenate([crowded, spread])))

    def test_many_buckets_around_the_insertion_cap(self):
        # 4000 keys give 128 buckets on the top 7 bits; fill 40 of them with
        # 60-140 keys each so the insertion/radix split is crossed both ways.
        rng = np.random.default_rng(6)
        buckets = rng.choice(128, size=40, replace=False).astype(np.uint64)
        sizes = rng.integers(60, 140, size=40)
        sizes[-1] = 4000 - sizes[:-1].sum()
        keys = np.concatenate(
            [
                (bucket << np.uint64(57)) + rng.integers(0, 1 << 57, size=size, dtype=np.uint64)
                for bucket, size in zip(buckets, sizes)
            ]
        )
        self._check(rng.permutation(keys))

    def test_duplicates_inside_buckets_stay_stable(self):
        # 600 distinct keys (past the n/8 hash threshold) repeated about five
        # times each: equal keys share a bucket and must keep input order.
        rng = np.random.default_rng(7)
        values = rng.integers(0, np.iinfo(np.uint64).max, size=600, dtype=np.uint64)
        self._check(values[rng.integers(0, 600, size=3000)])

    # The kernel's LSD radix sort ranks the distinct keys on the hash path
    # and sorts every sort-path bucket past the 96-key insertion cap.  It
    # skips each 11-bit digit that is constant across its input and
    # ping-pongs between two buffers, so after an odd number of executed
    # passes the run ends in the scratch copy.
    @pytest.mark.parametrize("live_digits", [1, 2, 3, 4, 5, 6])
    def test_radix_bucket_with_live_digits(self, live_digits):
        rng = np.random.default_rng(10 + live_digits)
        pool = rng.integers(0, 1 << min(11 * live_digits, 59), size=200, dtype=np.uint64)
        crowd = pool[rng.integers(0, 200, size=400)]
        top_digit = (crowd >> np.uint64(11 * (live_digits - 1))) & np.uint64(0x7FF)
        assert np.unique(top_digit).size > 1
        self._check(_with_outlier(crowd, 150))

    @pytest.mark.parametrize(
        "crowd",
        [
            np.arange(300, dtype=np.uint64) * np.uint64(0x9E3779B97),
            np.arange(300, dtype=np.uint64)[::-1] * np.uint64(0x9E3779B97),
            # 60 distinct keys (past the n/8 hash threshold) five times
            # over, equal keys 60 apart; their two low digits are constant.
            np.tile(np.arange(60, dtype=np.uint64) << np.uint64(30), 5),
        ],
        ids=["sorted", "reversed", "interleaved-duplicates"],
    )
    def test_radix_bucket_layouts(self, crowd):
        self._check(_with_outlier(crowd, crowd.size // 2))

    @SETTINGS
    @given(keys=crowded_keys())
    def test_crowded_bucket_either_path(self, keys):
        self._check(keys)

    def test_hash_path_ranks_keys_spanning_the_word(self):
        # 45 distinct keys in 1000 stay under the n/8 hash threshold; their
        # ranking sort sees every digit, including both ends of the range.
        rng = np.random.default_rng(9)
        top = np.iinfo(np.uint64).max
        distinct = np.concatenate(
            [
                np.array([0, 1, top - 1, top, 1 << 63], dtype=np.uint64),
                rng.integers(0, top, size=40, dtype=np.uint64),
            ]
        )
        self._check(distinct[rng.integers(0, distinct.size, size=1000)])

    @pytest.mark.parametrize(
        "keys",
        [
            np.arange(8, dtype=np.int64),
            np.arange(16, dtype=np.uint64)[::2],
            np.arange(8, dtype=np.uint64).reshape(2, 4),
        ],
        ids=["int64", "strided", "two-dimensional"],
    )
    def test_rejects_keys_it_cannot_read_raw(self, keys):
        # The kernel takes a raw pointer to the keys, so the wrapper checks
        # them once instead of ctypes validating every argument per call.
        with pytest.raises(ValueError, match="uint64"):
            get_kernel("csr_group")(keys)

    def test_verifier_demotes_a_build_returning_int64(self):
        # Right values, wrong width: the sweep would misread these arrays,
        # so verification must fail and the registry keep the numpy path.
        kernel = get_kernel("csr_group")

        def widened(keys):
            return tuple(array.astype(np.int64) for array in kernel(keys))

        with pytest.raises(RuntimeError, match="int32"):
            _verify_csr_group(widened)

    def test_grouping_matches_quadtree_usage(self):
        from repro.geometry.quadtree import _csr_group

        keys = np.random.default_rng(2).integers(0, 40, size=400, dtype=np.uint64)
        native = _csr_group(keys)
        with use_native(False):
            fallback = _csr_group(keys)
        for have, want in zip(native, fallback):
            np.testing.assert_array_equal(have, want)


@requires_native
class TestLloydKernels:
    """The three Lloyd warm-phase kernels vs their live numpy oracles."""

    def _problem(self, seed, n, d, k):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0)
        centers = rng.normal(size=(k, d)) * rng.uniform(0.1, 10.0)
        delta = points[:, None, :] - centers[None, :, :]
        squared = np.einsum("ijk,ijk->ij", delta, delta)
        assignment = np.argmin(squared, axis=1).astype(np.int64)
        return points, centers, squared, assignment

    @pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 16, 33])
    def test_refresh_bounds_matches_einsum_path(self, d):
        kernel = get_kernel("lloyd_refresh_bounds")
        assert kernel is not None
        points, centers, _, assignment = self._problem(d, 128, d, 6)
        rng = np.random.default_rng(100 + d)
        eroded = rng.normal(size=128)
        decrement = float(abs(rng.normal())) * 1e-3
        scale = 1.0 + 1e-12

        delta = points - centers[assignment]
        expected_sq = np.einsum("ij,ij->i", delta, delta)
        expected_upper = np.sqrt(expected_sq) * scale
        expected_eroded = eroded - decrement
        expected_maybe = np.flatnonzero(expected_upper >= expected_eroded)

        squared = np.empty(128, dtype=np.float64)
        mutated = eroded.copy()
        upper, maybe = kernel(
            np.ascontiguousarray(points),
            np.ascontiguousarray(centers),
            assignment,
            decrement,
            scale,
            squared,
            mutated,
        )
        np.testing.assert_array_equal(squared, expected_sq)
        np.testing.assert_array_equal(upper, expected_upper)
        np.testing.assert_array_equal(mutated, expected_eroded)
        np.testing.assert_array_equal(maybe, expected_maybe)

    @pytest.mark.parametrize("n,d,k", [(1, 1, 1), (64, 4, 9), (400, 12, 25)])
    def test_update_sums_matches_bincount(self, n, d, k):
        kernel = get_kernel("lloyd_update_sums")
        assert kernel is not None
        rng = np.random.default_rng(n * 31 + d)
        points = rng.normal(size=(n, d))
        weights = rng.uniform(0.1, 3.0, size=n)
        # Leave the top clusters empty: their slots must come back zero.
        assignment = rng.integers(0, max(1, k - 2), size=n).astype(np.int64)
        weighted = weights[:, None] * points
        expected_counts = np.bincount(assignment, weights=weights, minlength=k)
        codes = assignment[:, None] * d + np.arange(d, dtype=np.int64)
        expected_sums = np.bincount(
            codes.ravel(), weights=weighted.ravel(), minlength=k * d
        ).reshape(k, d)
        counts, sums = kernel(np.ascontiguousarray(weighted), weights, assignment, k)
        np.testing.assert_array_equal(counts, expected_counts)
        np.testing.assert_array_equal(sums, expected_sums)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("d", [1, 3, 10])
    def test_candidate_eval_matches_oracle(self, seed, d):
        kernel = get_kernel("lloyd_candidate_eval")
        assert kernel is not None
        n, k = 64, 7
        points, centers, squared, assignment = self._problem(seed * 13 + d, n, d, k)
        rng = np.random.default_rng(seed * 7 + d)
        # Stale some assignments so genuine reassignments occur.
        stale = rng.random(n) < 0.4
        assignment[stale] = rng.integers(0, k, size=int(stale.sum()))
        moved = points - centers[assignment]
        assigned_sq = np.einsum("ij,ij->i", moved, moved)
        center_norms = np.einsum("ij,ij->i", centers, centers)
        suspects = np.flatnonzero(rng.random(n) < 0.8).astype(np.int64)
        s = suspects.size
        upper = np.sqrt(assigned_sq[suspects]) * rng.uniform(1.0, 1.5, size=s)
        # Sound lower bounds only (factor <= 1): the engine never produces
        # over-estimates, and unsound bounds can exclude the true nearest
        # centre from the candidate set, making any comparison meaningless.
        bounds = np.sqrt(np.maximum(squared[suspects], 0.0)) * rng.uniform(
            0.4, 1.0, size=(s, k)
        )
        arguments = (
            np.ascontiguousarray(points),
            np.ascontiguousarray(centers),
            np.ascontiguousarray(center_norms),
            suspects,
            np.ascontiguousarray(bounds),
            np.ascontiguousarray(upper),
            np.ascontiguousarray(assigned_sq),
            assignment,
            1e-9,
        )
        expected = reference_candidate_eval(*arguments)
        produced = kernel(*arguments)
        if expected is None:
            assert produced is None
            return
        assert produced is not None
        np.testing.assert_array_equal(produced[0], expected[0])
        np.testing.assert_array_equal(produced[1], expected[1])

    def test_candidate_eval_bails_on_saturated_bounds(self):
        kernel = get_kernel("lloyd_candidate_eval")
        assert kernel is not None
        rng = np.random.default_rng(9)
        n, d, k = 20, 5, 8
        points = rng.normal(size=(n, d))
        centers = rng.normal(size=(k, d))
        assignment = np.zeros(n, dtype=np.int64)
        moved = points - centers[assignment]
        assigned_sq = np.einsum("ij,ij->i", moved, moved)
        center_norms = np.einsum("ij,ij->i", centers, centers)
        # Zero bounds with a huge upper: all k-1 candidates survive on every
        # suspect, blowing the 4*s pair budget — the kernel must hand the
        # batch back to the blocked numpy path instead of grinding serially.
        produced = kernel(
            np.ascontiguousarray(points),
            np.ascontiguousarray(centers),
            np.ascontiguousarray(center_norms),
            np.arange(n, dtype=np.int64),
            np.zeros((n, k), dtype=np.float64),
            np.full(n, 1e6, dtype=np.float64),
            np.ascontiguousarray(assigned_sq),
            assignment,
            1e-9,
        )
        assert produced is None


def _synthetic_tree(rng, n, depth):
    """Random per-level int32 CSR partitions shaped like a quadtree's arrays."""
    level_orders, level_offsets, level_cells = [], [], []
    for level in range(depth):
        n_cells = int(rng.integers(1, max(2, n // (level + 2)) + 1))
        cids = rng.integers(0, n_cells, size=n).astype(np.int32)
        order = np.argsort(cids, kind="stable").astype(np.int32)
        offsets = np.zeros(n_cells + 1, dtype=np.int32)
        np.cumsum(np.bincount(cids, minlength=n_cells), out=offsets[1:])
        level_orders.append(order)
        level_offsets.append(offsets)
        level_cells.append(cids)
    return level_orders, level_offsets, level_cells


@requires_native
class TestFkppLevelScoreKernel:
    @pytest.mark.parametrize("n,depth", [(80, 1), (150, 5), (301, 9)])
    def test_bound_sweep_matches_numpy_oracle(self, n, depth):
        rng = np.random.default_rng(depth)
        level_orders, level_offsets, level_cells = _synthetic_tree(rng, n, depth)
        order_flat = np.concatenate(level_orders)
        distances = np.sort(rng.uniform(0.05, 2.0, size=depth + 1))
        czs = np.array([np.float64(v) ** 2 for v in distances])
        best = rng.uniform(0.0, 2.0, size=n)
        best[rng.random(n) < 0.25] = np.inf
        assignment = rng.integers(-1, 4, size=n).astype(np.int64)
        mass = rng.uniform(0.0, 4.0, size=n)
        weights = rng.uniform(0.1, 3.0, size=n)
        kernel = get_kernel("fkpp_level_score")
        sweep = kernel(
            level_orders, level_offsets, level_cells, n, distances, czs,
            best, assignment, mass, weights,
        )
        starts = np.empty(depth, dtype=np.int64)
        ends = np.empty(depth, dtype=np.int64)
        for slot in range(4):
            center_point = int(rng.integers(0, n))
            ceiling = (np.inf, float(distances[depth // 2 + 1]), 0.0, np.inf)[slot]
            has_mass = slot > 0
            for level in range(depth):
                cid = int(level_cells[level][center_point])
                starts[level] = level_offsets[level][cid]
                ends[level] = level_offsets[level][cid + 1]
            expected_best = best.copy()
            expected_assignment = assignment.copy()
            expected_mass = mass.copy()
            expected = reference_fkpp_level_score(
                order_flat, n, starts, ends, distances, czs, ceiling, slot,
                expected_best, expected_assignment, expected_mass, weights,
                has_mass,
            )
            assert sweep(ceiling, slot, center_point, has_mass) == expected
            np.testing.assert_array_equal(best, expected_best)
            np.testing.assert_array_equal(assignment, expected_assignment)
            np.testing.assert_array_equal(mass, expected_mass)

    @pytest.mark.parametrize("widened", ["orders", "offsets", "cells"])
    def test_binder_rejects_int64_level_arrays(self, widened):
        # The sweep reads every level array as int32; a widened copy would
        # be misread, so the binder refuses it up front.
        n, depth = 50, 3
        tree = dict(zip(("orders", "offsets", "cells"), _synthetic_tree(np.random.default_rng(0), n, depth)))
        tree[widened] = [array.astype(np.int64) for array in tree[widened]]
        distances = np.linspace(0.1, 1.0, depth + 1)
        with pytest.raises(ValueError, match="int32"):
            get_kernel("fkpp_level_score")(
                tree["orders"], tree["offsets"], tree["cells"], n, distances, distances ** 2,
                np.full(n, np.inf), np.full(n, -1, dtype=np.int64), np.zeros(n), np.ones(n),
            )

    def test_escape_hatch_forces_numpy_sweep(self):
        with use_native(False):
            assert get_kernel("fkpp_level_score") is None


@requires_native
class TestFkppWeightedDrawKernel:
    @pytest.mark.parametrize("n", [1, 40, 513])
    def test_total_and_scan_match_cumsum_searchsorted(self, n):
        rng = np.random.default_rng(n)
        mass = rng.uniform(0.0, 5.0, size=n)
        mass[rng.random(n) < 0.3] = 0.0
        kernel = get_kernel("fkpp_weighted_draw")
        cumulative = np.cumsum(mass)
        total = float(kernel(mass))
        assert total == reference_fkpp_weighted_draw(mass)
        bound_total, bound_scan = kernel.bind(mass)
        assert float(bound_total()) == total
        us = [0.0, total * 0.4, total, total * 2.0]
        us.extend(float(cumulative[i]) for i in (0, n // 2, n - 1))
        for u in us:
            expected = reference_fkpp_draw_scan(mass, u)
            assert int(kernel.scan(mass, u)) == expected
            assert int(bound_scan(u)) == expected

    def test_scan_reflects_in_place_mass_updates(self):
        # The production closure is bound once per fit and must observe
        # every in-place rewrite of the mass store.
        mass = np.ones(10)
        kernel = get_kernel("fkpp_weighted_draw")
        bound_total, bound_scan = kernel.bind(mass)
        assert float(bound_total()) == 10.0
        mass[:5] = 0.0
        assert float(bound_total()) == float(np.cumsum(mass)[-1])
        assert int(bound_scan(0.5)) == int(
            np.searchsorted(np.cumsum(mass), 0.5, side="right")
        )

    def test_escape_hatch_forces_numpy_draw(self):
        with use_native(False):
            assert get_kernel("fkpp_weighted_draw") is None


@requires_native
class TestCrudeBoundProbeKernel:
    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_probe_sequence_matches_numpy_oracle(self, d):
        rng = np.random.default_rng(d)
        n = 200
        scaled = rng.uniform(-1.5, 1.5, size=(n, d))
        scaled[::6] = scaled[2]  # duplicates share cells at every level
        multipliers = (
            rng.integers(1, 2**62, size=d, dtype=np.uint64) * np.uint64(2)
            + np.uint64(1)
        )
        kernel = get_kernel("crude_bound_probe")
        lattice = np.empty((n, d), dtype=np.int64)
        frac = np.empty((n, d), dtype=np.float64)
        expected_lattice = np.empty((n, d), dtype=np.int64)
        expected_frac = np.empty((n, d), dtype=np.float64)
        # A bisection-shaped level walk: fresh jumps then doubling runs.
        for level, fresh in ((2, True), (3, False), (4, False), (8, True), (9, False)):
            expected = reference_crude_bound_probe(
                scaled, level, fresh, expected_lattice, expected_frac, multipliers
            )
            produced = kernel(scaled, level, fresh, lattice, frac, multipliers)
            assert produced == expected
            np.testing.assert_array_equal(lattice, expected_lattice)
            np.testing.assert_array_equal(frac, expected_frac)

    def test_escape_hatch_forces_numpy_probe(self):
        with use_native(False):
            assert get_kernel("crude_bound_probe") is None


def _round_buffers(n):
    return [np.empty(n), np.empty(n, dtype=np.int64), np.empty(n)]


# A kernel that fails its verifier on this host resolves to the fallback
# even while the tier as a whole is native.
requires_kmeanspp_round = pytest.mark.skipif(
    kernel_provider("kmeanspp_round") == "fallback",
    reason="no provider serves the kmeanspp_round kernel",
)


@requires_kmeanspp_round
class TestKmeansppRoundKernel:
    """The fused k-means++ round vs the numpy seeding round it replaces."""

    def _run(self, points, weights, rows, z):
        """Drive the bound kernel and the oracle side by side."""
        n = points.shape[0]
        expected, have = _round_buffers(n), _round_buffers(n)
        run_round = get_kernel("kmeanspp_round")(points, weights, *have, z)
        for slot, row in enumerate(rows):
            init = slot == 0
            want = reference_kmeanspp_round(
                points, points[row], weights, *expected, slot, z, init
            )
            assert run_round(row, slot, init) == want
            for have_array, want_array in zip(have, expected):
                np.testing.assert_array_equal(have_array, want_array)
        return expected

    @pytest.mark.parametrize("d", range(1, 34))
    def test_every_einsum_dimension_class(self, d):
        rng = np.random.default_rng(d)
        points = rng.normal(size=(97, d)) * rng.uniform(0.1, 30.0)
        rows = rng.integers(0, 97, size=6)
        self._run(points, np.ones(97), rows, 2)

    def test_round_zero_initialises_every_point(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(50, 4))
        best, assignment, mass = self._run(points, np.ones(50), [7], 2)
        assert np.all(assignment == 0)
        np.testing.assert_array_equal(best, np.einsum("ij,ij->i", points - points[7], points - points[7]))
        assert best[7] == 0.0 and mass[7] == 0.0

    @pytest.mark.parametrize("z", [1, 2])
    def test_weighted_rounds(self, z):
        rng = np.random.default_rng(10 + z)
        points = rng.normal(size=(300, 10)) * 5.0
        weights = rng.uniform(0.0, 4.0, size=300)
        weights[::9] = 0.0
        self._run(points, weights, rng.integers(0, 300, size=8), z)

    def test_exact_ties_keep_the_older_center(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(64, 5))
        points[32:] = points[:32]  # every point has an exact duplicate
        # Round 2 re-selects round 0's center and round 3 its duplicate:
        # every distance ties the incumbent, so nothing may move to them.
        _, assignment, _ = self._run(points, np.ones(64), [0, 40, 0, 32], 2)
        assert not np.any(assignment >= 2)

    def test_bound_round_rejects_out_of_range_rows(self):
        n = 8
        kernel = get_kernel("kmeanspp_round")
        run_round = kernel(np.zeros((n, 2)), np.ones(n), *_round_buffers(n), 2)
        with pytest.raises(IndexError):
            run_round(n, 0, True)

    def test_rounds_must_come_in_slot_order(self):
        # A round reads gap[assignment[i]] and every earlier slot's row, so
        # a skipped or repeated slot would read uninitialised memory.
        n = 8
        run_round = get_kernel("kmeanspp_round")(
            np.random.default_rng(0).normal(size=(n, 2)), np.ones(n), *_round_buffers(n), 2
        )
        with pytest.raises(ValueError):
            run_round(0, 1, True)  # init above slot 0
        with pytest.raises(ValueError):
            run_round(0, 0, False)  # slot 0 without init
        run_round(0, 0, True)
        with pytest.raises(ValueError):
            run_round(1, 0, True)  # repeated slot
        with pytest.raises(ValueError):
            run_round(1, 2, False)  # skipped slot
        with pytest.raises(ValueError):
            run_round(1, 1, True)  # init above slot 0
        run_round(1, 1, False)
        assert run_round.distance_evals <= 2 * n

    def test_slot_buffers_grow_past_their_first_capacity(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(120, 3)) * 10.0
        self._run(points, np.ones(120), rng.permutation(120)[:70], 2)

    def test_exact_hamerly_boundary_keeps_the_older_center(self):
        # Centers 0 then 2, a point at 1: gap == 4 * b exactly.  The margin
        # keeps the point on the full path, where the tie keeps center 0.
        points = np.array([[0.0], [2.0], [1.0]])
        best, assignment, _ = self._run(points, np.ones(3), [0, 1], 2)
        assert assignment.tolist() == [0, 1, 0] and best[2] == 1.0
        # Round 1 skips only the zero-distance point (center 0 itself).
        run_round = get_kernel("kmeanspp_round")(points, np.ones(3), *_round_buffers(3), 2)
        run_round(0, 0, True)
        run_round(1, 1, False)
        assert run_round.distance_evals == 3 + 2

    def test_subnormal_distances_match_numpy(self):
        # At 1e-160 the squared distances are subnormal (or zero), where
        # rounding is no longer relative; only b == 0 may skip there.
        rng = np.random.default_rng(6)
        points = rng.normal(size=(64, 3)) * 1e-160
        points[1::2] += 1e-150  # a far blob: gaps across blobs are normal
        for z in (1, 2):
            best, _, _ = self._run(points, np.ones(64), [0, 1, 2, 3, 10, 7], z)
            assert np.any((best > 0.0) & (best < np.finfo(np.float64).tiny))

    def test_duplicated_center_has_zero_gap(self):
        rng = np.random.default_rng(7)
        points = rng.normal(size=(40, 4))
        points[5] = points[0]
        # Round 2's center duplicates round 0's: every gap to center 0 is
        # 0, so its points take the full path and tie with their incumbent.
        _, assignment, _ = self._run(points, np.ones(40), [0, 9, 5], 2)
        assert not np.any(assignment == 2)


def test_kmeanspp_round_escape_hatch_forces_numpy_rounds():
    with use_native(False):
        assert get_kernel("kmeanspp_round") is None


class TestKmeansppDistanceEvals:
    """``kmeanspp.distance_evals`` counts the point distances computed."""

    @staticmethod
    def _count(points, k):
        with observability.tracing() as recorder:
            kmeans_plus_plus(points, k, seed=0)
        return recorder.counters()["kmeanspp.distance_evals"]

    @staticmethod
    def _two_blobs():
        points = np.random.default_rng(2).normal(size=(2000, 5))
        points[1000:] += 1e3
        return points

    @requires_kmeanspp_round
    def test_native_rounds_skip_far_points(self):
        points = self._two_blobs()
        assert 2000 < self._count(points, 12) < 2000 * 12

    def test_numpy_loop_counts_every_point_every_round(self):
        with use_native(False):
            assert self._count(self._two_blobs(), 12) == 2000 * 12


requires_quadtree_keys = pytest.mark.skipif(
    kernel_provider("quadtree_keys") == "fallback",
    reason="no provider serves the quadtree_keys kernel",
)


@requires_quadtree_keys
class TestQuadtreeKeysKernel:
    """The compiled key derivation vs the numpy derivation, level by level."""

    @staticmethod
    def _inputs(d, depth_cap, n=257):
        rng = np.random.default_rng(d * 100 + depth_cap)
        translated, shift = quadtree_key_points(rng, n, d, 1e6)
        return translated, shift, 2e6, _hash_multipliers(d)

    @pytest.mark.parametrize("depth_cap", [1, 17, 31, 32])
    @pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 10, 16, 17, 33])
    def test_every_level_matches_numpy_oracle(self, d, depth_cap):
        translated, shift, side, multipliers = self._inputs(d, depth_cap)
        expected = reference_quadtree_keys(translated, shift, side, depth_cap, multipliers)
        keys = np.empty(translated.shape[0], dtype=np.uint64)
        advance = get_kernel("quadtree_keys")(
            translated, shift, side, depth_cap, multipliers, keys
        )
        # The inputs exercise both level-0 lattice values and the clamp.
        lattice = np.floor((translated + shift) / side)
        assert (lattice < 0).any() and (lattice == 0).any()
        for level, want in enumerate(expected):
            if level:
                advance(level)
            np.testing.assert_array_equal(keys, want, err_msg=f"level {level}")

    @pytest.mark.parametrize("d,depth_cap", [(2, 32), (10, 32), (9, 20)])
    def test_oracle_and_kernel_match_the_quadtree_numpy_path(self, d, depth_cap):
        translated, shift, side, multipliers = self._inputs(d, depth_cap)
        tree = QuadtreeEmbedding()
        tree.n_points_, tree.dimension_ = translated.shape
        tree.delta_ = side / 2.0
        numpy_keys, numpy_advance = tree._numpy_keys(translated.copy(), shift, depth_cap)
        keys = np.empty(translated.shape[0], dtype=np.uint64)
        advance = get_kernel("quadtree_keys")(
            translated, shift, side, depth_cap, multipliers, keys
        )
        expected = reference_quadtree_keys(translated, shift, side, depth_cap, multipliers)
        for level, want in enumerate(expected):
            if level:
                numpy_advance(level)
                advance(level)
            np.testing.assert_array_equal(numpy_keys, want, err_msg=f"level {level}")
            np.testing.assert_array_equal(keys, want, err_msg=f"level {level}")

    def test_rounded_to_one_row_reads_all_ones(self):
        # Row 1's fractional part rounds to exactly 1.0: at depth 32 its
        # digits must clamp to all ones, so it shares every level's cell
        # with row 2, which sits 2**-41 cells below the same boundary.
        translated, shift, side, multipliers = self._inputs(2, 32, n=8)
        keys = np.empty(8, dtype=np.uint64)
        advance = get_kernel("quadtree_keys")(translated, shift, side, 32, multipliers, keys)
        for level in range(33):
            if level:
                advance(level)
            assert keys[1] == keys[2], level

    def test_bind_rejects_bad_buffers(self):
        translated, shift, side, multipliers = self._inputs(3, 8, n=16)
        kernel = get_kernel("quadtree_keys")
        keys = np.empty(16, dtype=np.uint64)
        with pytest.raises(ValueError):
            kernel(translated, shift, side, 33, multipliers, keys)
        with pytest.raises(ValueError):
            kernel(translated, shift, side, 8, multipliers, np.empty(15, dtype=np.uint64))
        with pytest.raises(ValueError):
            kernel(np.asfortranarray(translated), shift, side, 8, multipliers, keys)
        advance = kernel(translated, shift, side, 8, multipliers, keys)
        with pytest.raises(ValueError):
            advance(9)


class TestQuadtreeKeysDispatch:
    """``quadtree.keys.native`` / ``.numpy`` count one dispatch per fit."""

    @staticmethod
    def _counters(**tree_options):
        points = np.random.default_rng(8).normal(size=(500, 4))
        with observability.tracing() as recorder:
            QuadtreeEmbedding(seed=0, **tree_options).fit(points)
            QuadtreeEmbedding(seed=1, **tree_options).fit(points)
        counters = recorder.counters()
        return counters.get("quadtree.keys.native", 0.0), counters.get("quadtree.keys.numpy", 0.0)

    def test_one_count_per_fit(self):
        native = kernel_provider("quadtree_keys") != "fallback"
        assert self._counters() == ((2.0, 0.0) if native else (0.0, 2.0))

    def test_escape_hatch_counts_numpy(self):
        with use_native(False):
            assert get_kernel("quadtree_keys") is None
            assert self._counters() == (0.0, 2.0)

    def test_caps_past_32_levels_count_numpy(self):
        assert self._counters(max_levels=40, spread=2.0**45) == (0.0, 2.0)


class TestTierControl:
    def test_native_status_shape(self):
        status = native_status()
        assert status["tier"] in ("native", "fallback")
        assert set(status["kernels"]) == {
            "csr_group",
            "lloyd_refresh_bounds",
            "lloyd_candidate_eval",
            "lloyd_update_sums",
            "fkpp_level_score",
            "fkpp_weighted_draw",
            "crude_bound_probe",
            "kmeanspp_round",
            "quadtree_keys",
        }
        assert set(status["providers"]) == {"cc"}

    def test_native_status_kernels_sorted(self):
        # The status dict feeds `repro status` and the bench attribution
        # columns; stable ordering keeps diffs and logs deterministic.
        names = list(native_status()["kernels"])
        assert names == sorted(names)

    def test_use_native_false_forces_fallback(self):
        with use_native(False):
            status = native_status()
            assert status["tier"] == "fallback"
            # Every kernel resolves to None; the engine's own numpy path
            # takes over.
            assert get_kernel("csr_group") is None
            assert get_kernel("lloyd_candidate_eval") is None
            assert kernel_provider("csr_group") == "fallback"

    def test_use_native_restores_previous_mode(self):
        before = native_status()["tier"]
        with use_native(False):
            assert native_status()["tier"] == "fallback"
        assert native_status()["tier"] == before

    def test_disabled_kernels_carry_the_mode_as_reason(self):
        with use_native(False):
            for entry in native_status()["kernels"].values():
                assert entry["reason"] == "disabled by REPRO_NATIVE=0"
            assert kernel_demotions() == {}

    def test_only_fallback_kernels_carry_a_reason(self):
        for entry in native_status()["kernels"].values():
            assert ("reason" in entry) == (entry["provider"] == "fallback")

    def test_unavailable_provider_names_the_error(self, monkeypatch):
        def broken_build():
            raise RuntimeError("no C compiler (cc/gcc/clang) on PATH")

        monkeypatch.setattr(registry, "_load_provider", broken_build)
        with use_native(True):
            status = native_status()
            assert status["tier"] == "fallback"
            assert status["providers"]["cc"]["available"] is False
            for entry in status["kernels"].values():
                assert entry == {
                    "provider": "fallback",
                    "reason": "cc unavailable: RuntimeError: no C compiler (cc/gcc/clang) on PATH",
                }
            # An unavailable provider demotes nothing: no kernel was verified.
            assert kernel_demotions() == {}
            assert get_kernel("kmeanspp_round") is None

    @requires_native
    def test_native_mode_routes_all_kernels(self):
        for name, entry in native_status()["kernels"].items():
            assert entry == {"provider": "cc"}, name


@requires_kmeanspp_round
class TestKernelDemotions:
    """A kernel that fails verification falls back visibly, not silently."""

    def test_status_and_demotions_name_the_failed_verification(self, failing_kmeanspp_verifier):
        reason = failing_kmeanspp_verifier
        entry = native_status()["kernels"]["kmeanspp_round"]
        assert entry == {"provider": "fallback", "reason": reason}
        assert kernel_demotions() == {"kmeanspp_round": reason}
        assert get_kernel("kmeanspp_round") is None

    def test_compress_summary_reports_demotions(self, failing_kmeanspp_verifier, tmp_path, capsys):
        data = tmp_path / "data.npy"
        np.save(data, np.random.default_rng(3).normal(size=(400, 4)))
        arguments = ["compress", str(data), "--k", "5", "--m", "60", "--method", "sensitivity"]
        assert cli_main(arguments + ["--output", str(tmp_path / "c.npz")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["kernel_demotions"] == {"kmeanspp_round": failing_kmeanspp_verifier}
        assert summary["kernel_providers"]["kmeanspp_round"] == "fallback"

    def test_healthy_summary_reports_the_live_demotions(self, tmp_path, capsys):
        data = tmp_path / "data.npy"
        np.save(data, np.random.default_rng(3).normal(size=(400, 4)))
        arguments = ["compress", str(data), "--k", "5", "--m", "60", "--method", "sensitivity"]
        assert cli_main(arguments + ["--output", str(tmp_path / "c.npz")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["kernel_demotions"] == kernel_demotions()
        assert "kmeanspp_round" not in summary["kernel_demotions"]


class TestCrossModeBitIdentity:
    """The observable outputs of the engines must not depend on the tier.

    ``recompute_fraction`` is intentionally not compared: the native
    candidate kernel resolves some suspects the numpy path recomputes, so
    the internal work counter legitimately differs between modes.
    """

    @pytest.mark.parametrize(
        "n,d,k,seed", [(3000, 7, 15, 0), (1500, 13, 9, 2), (2000, 3, 5, 1)]
    )
    def test_kmeans_outputs_identical(self, n, d, k, seed):
        points = gaussian_mixture(
            n=n, d=d, n_clusters=max(2, k // 2), gamma=1.0, seed=seed
        ).points
        native = kmeans(points, k, seed=seed, max_iterations=40)
        with use_native(False):
            fallback = kmeans(points, k, seed=seed, max_iterations=40)
        np.testing.assert_array_equal(native.assignment, fallback.assignment)
        np.testing.assert_array_equal(native.centers, fallback.centers)
        assert native.cost == fallback.cost
        assert native.iterations == fallback.iterations
        assert native.converged == fallback.converged

    def test_weighted_kmeans_outputs_identical(self):
        points = gaussian_mixture(n=1200, d=6, n_clusters=5, gamma=1.0, seed=4).points
        weights = np.random.default_rng(4).uniform(0.05, 4.0, points.shape[0])
        native = kmeans(points, 11, weights=weights, seed=4, max_iterations=40)
        with use_native(False):
            fallback = kmeans(points, 11, weights=weights, seed=4, max_iterations=40)
        np.testing.assert_array_equal(native.assignment, fallback.assignment)
        np.testing.assert_array_equal(native.centers, fallback.centers)
        assert native.cost == fallback.cost
        assert native.iterations == fallback.iterations

    @staticmethod
    def _assert_kmeanspp_identical(points, k, weights=None, z=2, seed=0):
        native = kmeans_plus_plus(points, k, weights=weights, z=z, seed=seed)
        with use_native(False):
            fallback = kmeans_plus_plus(points, k, weights=weights, z=z, seed=seed)
        np.testing.assert_array_equal(native.centers, fallback.centers)
        np.testing.assert_array_equal(native.assignment, fallback.assignment)
        assert native.cost == fallback.cost
        return native

    @pytest.mark.parametrize("z", [1, 2])
    def test_kmeanspp_identical_on_generic_input(self, z):
        points = gaussian_mixture(n=4000, d=9, n_clusters=12, gamma=1.0, seed=z).points
        weights = np.random.default_rng(z).uniform(0.05, 3.0, points.shape[0])
        self._assert_kmeanspp_identical(points, 40, z=z, seed=z)
        self._assert_kmeanspp_identical(points, 40, weights=weights, z=z, seed=z)

    @pytest.mark.parametrize("z", [1, 2])
    def test_kmeanspp_identical_on_all_duplicate_points(self, z):
        # Zero total mass after round 0: every later round takes the
        # uniform fallback draw.
        points = np.tile([[1.5, -2.0, 3.0]], (200, 1))
        solution = self._assert_kmeanspp_identical(points, 7, z=z)
        assert solution.cost == 0.0

    def test_kmeanspp_identical_on_all_zero_weights(self):
        points = np.random.default_rng(5).normal(size=(300, 4))
        self._assert_kmeanspp_identical(points, 9, weights=np.zeros(300))

    @pytest.mark.parametrize("z", [1, 2])
    def test_kmeanspp_identical_when_distances_overflow(self, z):
        # Squared distances of ~1e155 coordinates overflow to inf, so the
        # mass total is non-finite and every round takes the uniform draw.
        points = np.random.default_rng(6).normal(size=(250, 3)) * 1e155
        with np.errstate(over="ignore", invalid="ignore"):
            self._assert_kmeanspp_identical(points, 6, z=z)

    @SETTINGS
    @given(kmeanspp_inputs())
    def test_kmeanspp_identical_on_adversarial_inputs(self, case):
        points, k, weights, z, seed = case
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            native = kmeans_plus_plus(points, k, weights=weights, z=z, seed=seed)
            with use_native(False):
                fallback = kmeans_plus_plus(points, k, weights=weights, z=z, seed=seed)
        assert native.centers.tobytes() == fallback.centers.tobytes()
        assert native.assignment.tobytes() == fallback.assignment.tobytes()
        assert np.float64(native.cost).tobytes() == np.float64(fallback.cost).tobytes()

    def test_kmeanspp_identical_when_k_reaches_n(self):
        points = np.random.default_rng(7).normal(size=(12, 3))
        for k in (12, 20):
            solution = self._assert_kmeanspp_identical(points, k)
            np.testing.assert_array_equal(solution.centers, points)

    def test_fast_coreset_identical(self):
        # Far outliers push the depth cap to 32: the native run derives
        # every level's keys in the compiled kernel and groups the deep
        # levels on the bucketed sort path.
        points = gaussian_mixture(n=20_000, d=10, n_clusters=25, gamma=1.0, seed=9).points
        points[:20, 0] += 1e4
        native = FastCoreset(50).sample(points, 1000, seed=9)
        with use_native(False):
            fallback = FastCoreset(50).sample(points, 1000, seed=9)
        assert native.points.tobytes() == fallback.points.tobytes()
        assert native.weights.tobytes() == fallback.weights.tobytes()

    def test_sensitivity_coreset_identical(self):
        points = gaussian_mixture(n=20_000, d=10, n_clusters=25, gamma=1.0, seed=8).points
        native = SensitivitySampling(50).sample(points, 1000, seed=8)
        with use_native(False):
            fallback = SensitivitySampling(50).sample(points, 1000, seed=8)
        assert native.points.tobytes() == fallback.points.tobytes()
        assert native.weights.tobytes() == fallback.weights.tobytes()

    @pytest.mark.parametrize("n,d,seed", [(3000, 2, 0), (2000, 16, 1)])
    def test_quadtree_fit_identical(self, n, d, seed):
        points = np.random.default_rng(seed).normal(size=(n, d)) * 10.0
        native = QuadtreeEmbedding(seed=seed).fit(points)
        with use_native(False):
            fallback = QuadtreeEmbedding(seed=seed).fit(points)
        assert native.depth == fallback.depth
        assert native.delta_ == fallback.delta_
        for level in range(native.depth):
            np.testing.assert_array_equal(
                native.level_cell_ids_[level], fallback.level_cell_ids_[level]
            )
