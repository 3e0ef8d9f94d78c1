"""Oracle-equivalence suite for the windowed / decaying streaming tree.

Every behavioural claim of ``repro.streaming.window`` is pinned against
:class:`repro.reference.NaiveWindowReference`, the frozen recompute-from-
window oracle: live block membership, the retained input-point multiset in
lossless configurations, single-step decay factors, and compression quality
(distortion parity with a direct compression of the recomputed window).
"""

import numpy as np
import pytest

from repro.core import FastCoreset, SensitivitySampling, UniformSampling
from repro.data import drifting_mixture
from repro.evaluation import coreset_distortion
from repro.parallel import SerialAsyncExecutor
from repro.reference import NaiveWindowReference
from repro.streaming import (
    DataStream,
    DriftDetector,
    ExponentialDecay,
    MergeReduceTree,
    SlidingCountWindow,
    StreamingCoresetPipeline,
    WindowedMergeReduceTree,
    WindowPolicy,
)
from repro.streaming.merge_reduce import stream_dataset


def _policy(kind):
    return SlidingCountWindow(4) if kind == "sliding" else ExponentialDecay(3.0)


def _oracle(kind):
    if kind == "sliding":
        return NaiveWindowReference(window_blocks=4)
    return NaiveWindowReference(half_life=3.0)


def _sorted_rows(points):
    return points[np.lexsort(points.T)]


#: How the oracle suite feeds the tree: one ``add_block`` per block, or
#: ``add_blocks`` on batches of 3 with a serial executor instance.
INGESTIONS = ("add_block", "batches_of_3")


def _feed(tree, oracle, stream, ingestion):
    """Feed ``stream`` to the tree and the oracle alike, yielding after each
    tree call."""
    blocks = list(stream)
    step = 1 if ingestion == "add_block" else 3
    executor = SerialAsyncExecutor()
    for start in range(0, len(blocks), step):
        batch = blocks[start : start + step]
        if step == 1:
            tree.add_block(*batch[0])
        else:
            tree.add_blocks(batch, executor=executor)
        for points, weights in batch:
            oracle.add_block(points, weights)
        yield


class TestPolicies:
    def test_sliding_window_membership(self):
        window = SlidingCountWindow(3)
        # At now=5 the window covers blocks {3, 4, 5}.
        assert window.expired(0, 1, 5)
        assert window.expired(2, 3, 5)
        assert not window.expired(3, 4, 5)
        assert not window.expired(5, 6, 5)
        # A bucket survives as long as its newest block does.
        assert not window.expired(1, 4, 5)

    def test_sliding_rejects_empty_window(self):
        with pytest.raises(ValueError, match="at least one block"):
            SlidingCountWindow(0)

    def test_decay_halves_per_half_life(self):
        policy = ExponentialDecay(2.0)
        assert policy.decay(0.0, 2.0) == pytest.approx(0.5)
        assert policy.decay(0.0, 4.0) == pytest.approx(0.25)
        assert policy.decay(3.0, 3.0) == pytest.approx(1.0)

    def test_decay_is_multiplicative_over_intermediate_stamps(self):
        policy = ExponentialDecay(3.0)
        assert policy.decay(0.0, 7.0) == pytest.approx(
            policy.decay(0.0, 4.0) * policy.decay(4.0, 7.0)
        )

    def test_decay_rejects_non_positive_half_life(self):
        with pytest.raises(ValueError, match="positive"):
            ExponentialDecay(0.0)

    def test_tree_requires_a_policy(self):
        with pytest.raises(ValueError, match="requires a window policy"):
            WindowedMergeReduceTree(
                sampler=UniformSampling(seed=0), coreset_size=10, seed=0
            )

    def test_expiring_and_merging_policy_rejected(self):
        class Broken(WindowPolicy):
            name = "broken"
            expires = True
            merges = True

        with pytest.raises(ValueError, match="expires and merges"):
            WindowedMergeReduceTree(
                sampler=UniformSampling(seed=0),
                coreset_size=10,
                seed=0,
                window=Broken(),
            )


class TestDriftDetector:
    def test_first_observation_anchors_without_firing(self):
        detector = DriftDetector(threshold=0.1)
        assert not detector.observe(np.zeros(3), 1.0)

    def test_fires_on_large_excursion_and_reanchors(self):
        detector = DriftDetector(threshold=0.5)
        assert not detector.observe(np.zeros(2), 1.0)
        assert detector.observe(np.array([1.0, 0.0]), 1.0)
        # Re-anchored at (1, 0): a nearby mean must not fire again.
        assert not detector.observe(np.array([1.1, 0.0]), 1.0)

    def test_degenerate_scale_never_fires(self):
        detector = DriftDetector(threshold=0.1)
        assert not detector.observe(np.zeros(2), 0.0)
        assert not detector.observe(np.full(2, 100.0), 0.0)

    def test_threshold_validated(self):
        with pytest.raises(ValueError, match="positive"):
            DriftDetector(threshold=0.0)


class TestOracleEquivalence:
    """The tree's window bookkeeping must match a from-scratch recompute."""

    @pytest.mark.parametrize("ingestion", INGESTIONS)
    @pytest.mark.parametrize("block_size", [40, 75])
    @pytest.mark.parametrize("kind", ["sliding", "decay"])
    def test_live_blocks_match_oracle_after_every_block(
        self, blobs, kind, block_size, ingestion
    ):
        tree = WindowedMergeReduceTree(
            sampler=UniformSampling(seed=0),
            coreset_size=50,
            seed=0,
            window=_policy(kind),
        )
        oracle = _oracle(kind)
        stream = DataStream(points=blobs[:600], block_size=block_size)
        for _ in _feed(tree, oracle, stream, ingestion):
            live = sorted(
                index
                for start, stop in tree.live_ranges()
                for index in range(start, stop)
            )
            assert live == oracle.live_indices()
        assert tree.blocks_seen == oracle.blocks_seen
        assert tree.blocks_expired == oracle.blocks_seen - len(oracle.live_indices())

    @pytest.mark.parametrize("ingestion", INGESTIONS)
    @pytest.mark.parametrize("block_size", [30, 50])
    def test_sliding_lossless_multiset_exact(self, blobs, block_size, ingestion):
        # coreset_size >= window capacity: nothing is ever resampled, so the
        # tree must retain *exactly* the oracle's window multiset.
        window = SlidingCountWindow(4)
        tree = WindowedMergeReduceTree(
            sampler=UniformSampling(seed=0),
            coreset_size=4 * block_size,
            seed=0,
            window=window,
        )
        oracle = NaiveWindowReference(window_blocks=4)
        stream = DataStream(points=blobs[:560], block_size=block_size)
        for _ in _feed(tree, oracle, stream, ingestion):
            pass
        final = tree.query()
        expected_points, expected_weights = oracle.window_points()
        assert final.size == expected_points.shape[0]
        np.testing.assert_array_equal(
            _sorted_rows(final.points), _sorted_rows(expected_points)
        )
        np.testing.assert_array_equal(final.weights, expected_weights)

    @pytest.mark.parametrize("ingestion", INGESTIONS)
    @pytest.mark.parametrize("half_life", [2.0, 8.0])
    def test_decay_lossless_weights_match_single_step_oracle(
        self, blobs, half_life, ingestion
    ):
        # Nothing expires and nothing is resampled: the telescoped per-fold
        # factors must equal the oracle's single-step factors to rounding.
        n, block_size = 400, 50
        tree = WindowedMergeReduceTree(
            sampler=UniformSampling(seed=0),
            coreset_size=n,
            seed=0,
            window=ExponentialDecay(half_life),
        )
        oracle = NaiveWindowReference(half_life=half_life)
        stream = DataStream(points=blobs[:n], block_size=block_size)
        for _ in _feed(tree, oracle, stream, ingestion):
            pass
        final = tree.query()
        expected_points, expected_weights = oracle.window_points()
        assert final.size == n
        order_tree = np.lexsort(final.points.T)
        order_oracle = np.lexsort(expected_points.T)
        np.testing.assert_array_equal(
            final.points[order_tree], expected_points[order_oracle]
        )
        np.testing.assert_allclose(
            final.weights[order_tree], expected_weights[order_oracle], rtol=1e-12
        )

    def test_explicit_timestamps_drive_decay(self, blobs):
        # Stamps 0, 3, 6, ... with half-life 3: each step halves again.
        half_life = 3.0
        tree = WindowedMergeReduceTree(
            sampler=UniformSampling(seed=0),
            coreset_size=300,
            seed=0,
            window=ExponentialDecay(half_life),
        )
        oracle = NaiveWindowReference(half_life=half_life)
        blocks = list(DataStream(points=blobs[:300], block_size=60))
        for index, (points, weights) in enumerate(blocks):
            tree.add_block(points, weights, timestamp=3.0 * index)
            oracle.add_block(points, weights, timestamp=3.0 * index)
        final = tree.query()
        _, expected_weights = oracle.window_points()
        order = np.lexsort(final.points.T)
        np.testing.assert_allclose(
            np.sort(final.weights), np.sort(expected_weights), rtol=1e-12
        )
        # The oldest block has faded by 0.5 ** (len - 1).
        assert final.weights.min() == pytest.approx(
            0.5 ** (len(blocks) - 1), rel=1e-9
        )
        assert order.shape[0] == final.size

    def test_decreasing_timestamps_rejected_by_tree_and_oracle(self, blobs):
        tree = WindowedMergeReduceTree(
            sampler=UniformSampling(seed=0),
            coreset_size=50,
            seed=0,
            window=ExponentialDecay(2.0),
        )
        oracle = NaiveWindowReference(half_life=2.0)
        tree.add_block(blobs[:40], timestamp=5.0)
        oracle.add_block(blobs[:40], timestamp=5.0)
        with pytest.raises(ValueError, match="non-decreasing"):
            tree.add_block(blobs[40:80], timestamp=4.0)
        with pytest.raises(ValueError, match="non-decreasing"):
            oracle.add_block(blobs[40:80], timestamp=4.0)

    @pytest.mark.parametrize("kind", ["sliding", "decay"])
    def test_distortion_parity_with_direct_window_compression(self, blobs, kind):
        # A real compression (window smaller than the data, m smaller than
        # the window): the tree's coreset must cluster the live window about
        # as well as one direct compression of the oracle's recompute.  The
        # per-seed gap (streamed - direct) has a standard deviation of
        # ~0.17 and decay folds cost ~0.15 on average, so the mean runs over
        # 40 seeds.  Decay's bound is that mean plus three standard errors
        # (0.153 + 3 * 0.181 / sqrt(40)); losing decay or expiry lifts the
        # mean gap to about 0.69 or 1.03.
        block_size, m, k = 150, 120, 6
        bound = {"sliding": 0.15, "decay": 0.24}[kind]
        gaps = []
        for seed in range(40):
            tree = WindowedMergeReduceTree(
                sampler=SensitivitySampling(k=k, seed=seed),
                coreset_size=m,
                seed=seed,
                window=_policy(kind),
            )
            oracle = _oracle(kind)
            for points, weights in DataStream(points=blobs, block_size=block_size):
                tree.add_block(points, weights)
                oracle.add_block(points, weights)
            window_points, window_weights = oracle.window_points()
            streamed = coreset_distortion(
                window_points,
                tree.finalize(),
                k=k,
                weights=window_weights,
                seed=seed + 100,
            )
            direct = coreset_distortion(
                window_points,
                oracle.compress(SensitivitySampling(k=k, seed=seed), m, seed=seed),
                k=k,
                weights=window_weights,
                seed=seed + 100,
            )
            assert streamed < 2.0
            assert direct < 2.0
            gaps.append(streamed - direct)
        assert abs(float(np.mean(gaps))) < bound


class TestWindowedTreeBehaviour:
    def test_sliding_bucket_count_bounded_by_window(self, blobs):
        window = SlidingCountWindow(5)
        tree = WindowedMergeReduceTree(
            sampler=UniformSampling(seed=0), coreset_size=40, seed=0, window=window
        )
        for points, weights in DataStream(points=blobs, block_size=100):
            tree.add_block(points, weights)
            assert tree.buckets_live <= window.blocks
        assert tree.buckets_live == window.blocks

    def test_decay_bucket_count_logarithmic(self, blobs):
        tree = WindowedMergeReduceTree(
            sampler=UniformSampling(seed=0),
            coreset_size=40,
            seed=0,
            window=ExponentialDecay(4.0),
        )
        for points, weights in DataStream(points=blobs, block_size=50):
            tree.add_block(points, weights)
            # Binary counter: one bucket per set bit of blocks_seen.
            assert tree.buckets_live == bin(tree.blocks_seen).count("1")

    def test_query_is_non_destructive(self, blobs):
        tree = WindowedMergeReduceTree(
            sampler=UniformSampling(seed=0),
            coreset_size=60,
            seed=0,
            window=SlidingCountWindow(3),
        )
        mid_results = []
        for points, weights in DataStream(points=blobs[:900], block_size=100):
            tree.add_block(points, weights)
            before = tree.live_ranges()
            mid_results.append(tree.query())
            assert tree.live_ranges() == before
        assert all(coreset.size <= 60 for coreset in mid_results)
        assert tree.blocks_seen == 9
        final = tree.finalize()
        assert final.method == "windowed_merge_reduce[sliding][uniform]"

    def test_empty_window_query_raises(self):
        tree = WindowedMergeReduceTree(
            sampler=UniformSampling(seed=0),
            coreset_size=10,
            seed=0,
            window=SlidingCountWindow(2),
        )
        with pytest.raises(ValueError, match="window is empty"):
            tree.query()

    @pytest.mark.parametrize("kind", ["sliding", "decay"])
    def test_drift_detector_fires_exactly_at_the_mixture_shift(self, kind):
        dataset = drifting_mixture(
            n=1600, d=6, n_clusters=4, drift_at=0.5, shift=2.0, seed=0
        )
        block_size = 100
        expected = dataset.parameters["drift_row"] // block_size
        tree = WindowedMergeReduceTree(
            sampler=UniformSampling(seed=0),
            coreset_size=80,
            seed=0,
            window=_policy(kind),
            drift_threshold=0.25,
        )
        fired_at = []
        stream = DataStream(points=dataset.points, block_size=block_size)
        for index, (points, weights) in enumerate(stream):
            before = tree.drift_events
            tree.add_block(points, weights)
            if tree.drift_events > before:
                fired_at.append(index)
        assert fired_at == [expected]
        assert tree.last_drift_block == expected

    def test_no_drift_events_on_a_stationary_stream(self, blobs):
        # `blobs` arrives in cluster order, so its block means genuinely
        # move; a stationary stream is the one that must stay silent.
        stationary = np.random.default_rng(5).normal(size=(1200, 6))
        tree = WindowedMergeReduceTree(
            sampler=UniformSampling(seed=0),
            coreset_size=60,
            seed=0,
            window=SlidingCountWindow(4),
            drift_threshold=0.25,
        )
        for points, weights in DataStream(points=stationary, block_size=150):
            tree.add_block(points, weights)
        assert tree.drift_events == 0
        assert tree.last_drift_block == -1

    def test_shrinking_window_box_refreshes_the_hint_caches(self):
        # Two wide blocks, then narrow ones: once both wide blocks have
        # expired the window's box is ~100x smaller than at the last
        # refresh, so the cached spread would overestimate the live window.
        rng = np.random.default_rng(0)
        tree = WindowedMergeReduceTree(
            sampler=FastCoreset(4, seed=0), coreset_size=100, seed=1, window=SlidingCountWindow(2)
        )
        refreshes, diameters = [], []
        for scale in (100, 100, 1, 1, 1):
            tree.add_block(scale * rng.normal(size=(400, 5)))
            refreshes.append((tree.spread_refreshes, tree.cost_bound_refreshes))
            diameters.append(tree._cached_diameter)
        assert refreshes == [(1, 1), (1, 1), (1, 1), (2, 2), (2, 2)]
        assert diameters[2] == pytest.approx(1317.0, rel=1e-3)
        assert diameters[3] == pytest.approx(13.58, rel=1e-3)

    def test_drift_and_expiry_each_refresh_the_hint_caches(self):
        dataset = drifting_mixture(4800, 5, drift_at=0.5, seed=2)
        tree = WindowedMergeReduceTree(
            sampler=FastCoreset(4, seed=0),
            coreset_size=100,
            seed=1,
            window=SlidingCountWindow(4),
            drift_threshold=0.25,
        )
        refreshes, diameters = [], []
        for points, weights in DataStream.with_block_count(dataset.points, 12):
            tree.add_block(points, weights)
            refreshes.append((tree.spread_refreshes, tree.cost_bound_refreshes))
            diameters.append(tree._cached_diameter)
        # The drift fires at block 6; by block 9 the pre-drift blocks have
        # expired and the box shrinks back to one phase's size.
        assert tree.last_drift_block == 6 and tree.drift_events == 1
        assert refreshes == [(1, 1)] * 6 + [(2, 2)] * 3 + [(3, 3)] * 3
        assert diameters[5] == pytest.approx(311.2, rel=1e-3)
        assert diameters[6] == pytest.approx(755.6, rel=1e-3)
        assert diameters[9] == pytest.approx(313.8, rel=1e-3)

    def test_unexpired_window_shares_the_append_only_hint_sequence(self):
        # Both trees run one _stream_hints: while no block expires, the
        # windowed tree refreshes exactly when the append-only tree does.
        dataset = drifting_mixture(4800, 5, drift_at=0.5, seed=2)
        append_only = MergeReduceTree(sampler=FastCoreset(4, seed=0), coreset_size=100, seed=1)
        windowed = WindowedMergeReduceTree(
            sampler=FastCoreset(4, seed=0),
            coreset_size=100,
            seed=1,
            window=SlidingCountWindow(12),
        )
        for points, weights in DataStream.with_block_count(dataset.points, 12):
            append_only.add_block(points, weights)
            windowed.add_block(points, weights)
            assert windowed.blocks_expired == 0
            for name in (
                "spread_refreshes",
                "cost_bound_refreshes",
                "_cached_diameter",
                "_cached_spread",
                "_cached_cost_bound",
            ):
                assert getattr(windowed, name) == getattr(append_only, name), name
        assert windowed.spread_refreshes == 2


class TestWindowedPipeline:
    @pytest.mark.parametrize(
        "executor, prefetch",
        [
            ("add_block", None),
            ("pipeline", None),
            (None, None),
            ("serial", None),
            ("thread", None),
            ("thread", 2),
            ("thread", 4),
        ],
    )
    @pytest.mark.parametrize("kind", ["sliding", "decay"])
    def test_executors_bit_identical(self, blobs, kind, executor, prefetch):
        # Host-walk determinism: every stochastic input is fixed in arrival
        # order, so every executor must reproduce the serial pipeline byte
        # for byte.  Without a prefetch depth the tree is driven directly:
        # add_blocks resolves None or a backend name, then flushes and
        # closes it within the call.  "add_block" feeds a bare tree one
        # block at a time; "pipeline" runs a pipeline with no executor.
        settings = dict(
            sampler=SensitivitySampling(k=5, seed=0), coreset_size=150, seed=3, window=_policy(kind)
        )
        stream = DataStream(points=blobs, block_size=150)
        reference = StreamingCoresetPipeline(**settings, executor=SerialAsyncExecutor()).run(stream)
        if executor == "add_block":
            tree = WindowedMergeReduceTree(**settings)
            for points, weights in stream:
                tree.add_block(points, weights)
            coreset = tree.finalize()
        elif executor == "pipeline":
            coreset = StreamingCoresetPipeline(**settings).run(stream)
        elif prefetch is None:
            tree = WindowedMergeReduceTree(**settings)
            blocks = list(stream)
            for start in range(0, len(blocks), 3):
                tree.add_blocks(blocks[start : start + 3], executor=executor)
                assert not tree._pending
            coreset = tree.finalize()
        else:
            coreset = StreamingCoresetPipeline(
                **settings, executor=executor, prefetch_batches=prefetch
            ).run(stream)
        np.testing.assert_array_equal(reference.points, coreset.points)
        np.testing.assert_array_equal(reference.weights, coreset.weights)

    @pytest.mark.parametrize("kind", ["sliding", "decay"])
    def test_statistics_and_diagnostics_carry_window_counters(self, blobs, kind):
        pipeline = StreamingCoresetPipeline(
            sampler=UniformSampling(seed=0),
            coreset_size=80,
            seed=0,
            window=_policy(kind),
        )
        coreset, statistics = pipeline.run_with_statistics(
            DataStream(points=blobs, block_size=150)
        )
        assert coreset.size <= 80
        expected_expired = (10 - 4) * 1 if kind == "sliding" else 0
        # 10 blocks of 150 points: a 4-block sliding window retires 6.
        assert statistics["blocks_expired"] == expected_expired
        assert statistics["drift_events"] == 0
        assert pipeline.last_diagnostics.blocks_expired == expected_expired
        assert pipeline.last_diagnostics.drift_events == 0

    def test_stream_dataset_window_kwarg(self, blobs):
        coreset = stream_dataset(
            blobs,
            UniformSampling(seed=0),
            coreset_size=100,
            n_blocks=8,
            seed=0,
            window=SlidingCountWindow(3),
        )
        assert coreset.size <= 100
        assert coreset.method == "windowed_merge_reduce[sliding][uniform]"

    def test_windowed_total_weight_tracks_window_not_stream(self, blobs):
        # 1500 points in 10 blocks, window of 4: the coreset summarises the
        # last 600 points, so its weight must be near 600, not 1500.
        pipeline = StreamingCoresetPipeline(
            sampler=SensitivitySampling(k=5, seed=0),
            coreset_size=120,
            seed=0,
            window=SlidingCountWindow(4),
        )
        coreset = pipeline.run(DataStream(points=blobs, block_size=150))
        assert coreset.total_weight == pytest.approx(600, rel=0.35)
