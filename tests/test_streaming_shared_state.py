"""Shared per-stream state in merge-&-reduce: caching, refresh, and parity.

The merge-&-reduce tree now caches one spread estimate per stream and passes
it to every compression through the sampler ``spread`` hook.  These tests
pin down (a) the cache/refresh mechanics, (b) that the hook round-trips
through ``CoresetConstruction.sample`` for every sampler, and (c) the
quality contract: coresets built off the cached estimate match the
per-block-estimate baseline's distortion within tolerance.
"""

import numpy as np
import pytest

from repro.core import UniformSampling
from repro.core.fast_coreset import FastCoreset
from repro.data.synthetic import gaussian_mixture
from repro.evaluation import coreset_distortion
from repro.streaming import DataStream, StreamingCoresetPipeline
from repro.streaming import merge_reduce
from repro.streaming.merge_reduce import MergeReduceTree, stream_dataset


@pytest.fixture(scope="module")
def stream_points():
    points = gaussian_mixture(n=4000, d=6, n_clusters=5, gamma=0.0, seed=21).points
    # Shuffle away the generator's cluster-ordered layout so every block is
    # distributionally stationary (the cluster-ordered case is exercised by
    # the bounding-box-growth test below).
    return points[np.random.default_rng(0).permutation(points.shape[0])]


class TestSpreadCache:
    def test_single_refresh_for_stationary_stream(self, stream_points):
        tree = MergeReduceTree(sampler=FastCoreset(k=6, seed=0), coreset_size=200, seed=1)
        for block, weights in DataStream.with_block_count(stream_points, 8):
            tree.add_block(block, weights)
        tree.finalize()
        assert tree.spread_refreshes == 1

    def test_refresh_triggered_by_bounding_box_growth(self):
        rng = np.random.default_rng(3)
        tree = MergeReduceTree(sampler=FastCoreset(k=4, seed=0), coreset_size=100, seed=2)
        for scale in (1.0, 1.0, 10.0, 10.0, 100.0):
            tree.add_block(rng.normal(scale=scale, size=(400, 5)))
        assert tree.spread_refreshes >= 3

    def test_narrow_blocks_never_refresh_the_append_only_cache(self):
        # The shrink clause of the refresh signal is for windowed trees: an
        # append-only tree's box keeps the wide blocks, so it never shrinks.
        rng = np.random.default_rng(0)
        tree = MergeReduceTree(sampler=FastCoreset(4, seed=0), coreset_size=100, seed=1)
        refreshes, diameters = [], []
        for scale in (100, 100, 1, 1, 1):
            tree.add_block(scale * rng.normal(size=(400, 5)))
            refreshes.append((tree.spread_refreshes, tree.cost_bound_refreshes))
            diameters.append(tree._cached_diameter)
        assert refreshes == [(1, 1)] * 5
        assert diameters == [pytest.approx(1317.0, rel=1e-3)] * 5

    def test_staleness_bounded_when_min_distance_shrinks(self, monkeypatch):
        """The bounding box cannot see near-duplicates arriving late in the
        stream (the spread grows through the *minimum* distance), so the
        periodic interval must force a resync and raise the cached value.
        The interval counts blocks: at interval 8 the refresh after the
        first block's is the tenth block's."""
        monkeypatch.setattr(merge_reduce, "SPREAD_REFRESH_INTERVAL", 8)
        rng = np.random.default_rng(7)
        tree = MergeReduceTree(sampler=FastCoreset(k=4, seed=0), coreset_size=100, seed=5)
        # Coarse integer grid first (small spread, fixed bounding box) ...
        tree.add_block(rng.integers(0, 20, size=(400, 3)).astype(float))
        early_spread = tree._cached_spread
        refreshes = [tree.spread_refreshes]
        # ... then blocks riddled with near-duplicate pairs inside that box.
        for _ in range(9):
            base = rng.uniform(0.0, 20.0, size=(200, 3))
            tree.add_block(np.concatenate([base, base + 1e-9]))
            refreshes.append(tree.spread_refreshes)
        assert refreshes == [1] * 9 + [2]
        assert tree._cached_spread > early_spread * 100

    def test_share_disabled_never_estimates(self, stream_points):
        tree = MergeReduceTree(
            sampler=FastCoreset(k=6, seed=0),
            coreset_size=200,
            seed=1,
            share_stream_state=False,
        )
        for block, weights in DataStream.with_block_count(stream_points, 8):
            tree.add_block(block, weights)
        tree.finalize()
        assert tree.spread_refreshes == 0

    def test_statistics_report_refreshes(self, stream_points):
        pipeline = StreamingCoresetPipeline(
            sampler=FastCoreset(k=6, seed=0), coreset_size=200, seed=4
        )
        _, statistics = pipeline.run_with_statistics(
            DataStream.with_block_count(stream_points, 8)
        )
        assert statistics["spread_refreshes"] >= 1.0

    def test_spread_hint_accepted_by_every_sampler(self, stream_points):
        """The hook must round-trip through ``sample`` for hint-agnostic samplers too."""
        coreset = UniformSampling(seed=0).sample(stream_points, 50, spread=123.4)
        assert coreset.size == 50

    def test_cost_bound_hint_accepted_by_every_sampler(self, stream_points):
        """Same round-trip contract for the Algorithm-2 cost-bound hint."""
        for sampler in (UniformSampling(seed=0), FastCoreset(k=4, seed=0)):
            coreset = sampler.sample(stream_points, 50, spread=123.4, cost_bound=55.5)
            assert coreset.size >= 50


class TestCostBoundCache:
    def test_single_bound_refresh_for_stationary_stream(self, stream_points):
        """One Algorithm-2 binary search per stream, not per compression,
        refreshed together with the spread cache."""
        tree = MergeReduceTree(sampler=FastCoreset(k=6, seed=0), coreset_size=200, seed=1)
        for block, weights in DataStream.with_block_count(stream_points, 8):
            tree.add_block(block, weights)
        tree.finalize()
        assert tree.cost_bound_refreshes == 1
        assert tree.spread_refreshes == 1
        assert tree._cached_cost_bound is not None and tree._cached_cost_bound > 0

    def test_refresh_signal_resets_both_caches(self):
        """Bounding-box growth re-estimates the spread AND the cost bound."""
        rng = np.random.default_rng(3)
        tree = MergeReduceTree(sampler=FastCoreset(k=4, seed=0), coreset_size=100, seed=2)
        for scale in (1.0, 1.0, 10.0, 10.0, 100.0):
            tree.add_block(rng.normal(scale=scale, size=(400, 5)))
        assert tree.cost_bound_refreshes == tree.spread_refreshes >= 3

    def test_hint_agnostic_sampler_pays_no_bound(self, stream_points):
        """No Algorithm-2 search is spent on a sampler that ignores the hint."""
        tree = MergeReduceTree(sampler=UniformSampling(seed=0), coreset_size=150, seed=1)
        for block, weights in DataStream.with_block_count(stream_points, 8):
            tree.add_block(block, weights)
        tree.finalize()
        assert tree.cost_bound_refreshes == 0

    def test_cache_disabled_restores_per_compression_search(self, stream_points):
        tree = MergeReduceTree(
            sampler=FastCoreset(k=6, seed=0),
            coreset_size=200,
            seed=1,
            cache_cost_bound=False,
        )
        for block, weights in DataStream.with_block_count(stream_points, 8):
            tree.add_block(block, weights)
        tree.finalize()
        assert tree.cost_bound_refreshes == 0
        assert tree.spread_refreshes >= 1  # the spread cache is unaffected

    def test_statistics_report_bound_refreshes(self, stream_points):
        pipeline = StreamingCoresetPipeline(
            sampler=FastCoreset(k=6, seed=0), coreset_size=200, seed=4
        )
        _, statistics = pipeline.run_with_statistics(
            DataStream.with_block_count(stream_points, 8)
        )
        assert statistics["cost_bound_refreshes"] >= 1.0

    def test_cached_bound_distortion_matches_uncached_baseline(self, stream_points):
        """The cached bound only steers grid granularities: distortion parity
        with the per-compression-search baseline, averaged over seeds."""
        sampler = FastCoreset(k=8, seed=0)
        cached, baseline = [], []
        for seed in range(5):
            for collector, cache in ((cached, True), (baseline, False)):
                coreset = StreamingCoresetPipeline(
                    sampler=sampler, coreset_size=300, seed=seed, cache_cost_bound=cache
                ).run(DataStream.with_block_count(stream_points, 8))
                collector.append(
                    coreset_distortion(stream_points, coreset, 8, seed=100 + seed)
                )
        assert float(np.mean(cached)) == pytest.approx(float(np.mean(baseline)), abs=0.15)
        assert float(np.mean(cached)) < 1.5


class TestCachedSpreadQuality:
    def test_distortion_matches_per_block_baseline(self, stream_points):
        """Coresets off the cached estimate are as faithful as the baseline's.

        The cached value differs from any single block's own estimate, but
        only its logarithm is consumed (quadtree depth caps), so the
        resulting compressions must have statistically indistinguishable
        distortion.  Averaged over seeds to damp sampling noise.
        """
        sampler = FastCoreset(k=8, seed=0)
        shared, baseline = [], []
        for seed in range(3):
            for collector, share in ((shared, True), (baseline, False)):
                coreset = stream_dataset(
                    stream_points,
                    sampler,
                    300,
                    n_blocks=8,
                    seed=seed,
                    share_stream_state=share,
                )
                collector.append(
                    coreset_distortion(stream_points, coreset, 8, seed=100 + seed)
                )
        shared_mean = float(np.mean(shared))
        baseline_mean = float(np.mean(baseline))
        assert shared_mean == pytest.approx(baseline_mean, abs=0.1)
        assert shared_mean < 1.5

    def test_identical_when_sampler_ignores_hint(self, stream_points):
        """For hint-agnostic samplers sharing only skips estimates: same RNG path,
        same coreset."""
        with_share = stream_dataset(
            stream_points, UniformSampling(seed=0), 150, n_blocks=8, seed=9
        )
        without_share = stream_dataset(
            stream_points,
            UniformSampling(seed=0),
            150,
            n_blocks=8,
            seed=9,
            share_stream_state=False,
        )
        assert np.array_equal(with_share.points, without_share.points)
        assert np.array_equal(with_share.weights, without_share.weights)
