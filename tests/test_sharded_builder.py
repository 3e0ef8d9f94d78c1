"""Backend-equivalence suite for the parallel execution engine.

The contract pinned here is the subsystem's design center: for a fixed seed
and shard count, every executor backend at every worker count produces
**bit-identical** coresets (points, weights, and metadata), for every
sampler.  Thread-backend cases run in the default suite; process-pool cases
carry the ``parallel`` marker so constrained runners can deselect them.
"""

import numpy as np
import pytest

from repro.core import FastCoreset, SensitivitySampling, UniformSampling
from repro.evaluation import coreset_distortion
from repro.parallel import (
    ProcessAsyncExecutor,
    SerialAsyncExecutor,
    ShardedCoresetBuilder,
    ThreadAsyncExecutor,
)
from repro.streaming import DataStream, StreamingCoresetPipeline


def _make_sampler(name):
    if name == "uniform":
        return UniformSampling(seed=0)
    if name == "sensitivity":
        return SensitivitySampling(k=5, seed=0)
    return FastCoreset(k=5, seed=0)


SAMPLER_NAMES = ("uniform", "sensitivity", "fast_coreset")


def _assert_identical(reference, other, context):
    assert np.array_equal(reference.coreset.points, other.coreset.points), context
    assert np.array_equal(reference.coreset.weights, other.coreset.weights), context
    assert reference.coreset.method == other.coreset.method, context
    assert reference.shard_sizes == other.shard_sizes, context
    assert reference.message_sizes == other.message_sizes, context
    assert reference.communication == other.communication, context
    assert reference.metadata == other.metadata, context


class TestShardedBuilderEquivalence:
    @pytest.mark.parametrize("sampler_name", SAMPLER_NAMES)
    @pytest.mark.parametrize("seed", (0, 17))
    def test_thread_matches_serial_across_worker_counts(self, blobs, sampler_name, seed):
        builder = ShardedCoresetBuilder(
            _make_sampler(sampler_name),
            n_shards=4,
            coreset_size_per_shard=60,
            seed=seed,
        )
        reference = builder.build(blobs, executor=SerialAsyncExecutor())
        for workers in (1, 2, 3):
            with ThreadAsyncExecutor(workers=workers) as executor:
                result = builder.build(blobs, executor=executor)
            _assert_identical(reference, result, (sampler_name, seed, workers))

    @pytest.mark.parallel
    @pytest.mark.parametrize("sampler_name", SAMPLER_NAMES)
    def test_process_matches_serial_across_worker_counts(self, blobs, sampler_name):
        builder = ShardedCoresetBuilder(
            _make_sampler(sampler_name),
            n_shards=4,
            coreset_size_per_shard=60,
            seed=5,
        )
        reference = builder.build(blobs, executor=SerialAsyncExecutor())
        for workers in (1, 2, 4):
            with ProcessAsyncExecutor(workers=workers) as executor:
                result = builder.build(blobs, executor=executor)
            _assert_identical(reference, result, (sampler_name, workers))

    def test_same_seed_reproduces_and_seeds_differ(self, blobs):
        builder = ShardedCoresetBuilder(
            UniformSampling(seed=0), n_shards=3, coreset_size_per_shard=50, seed=1
        )
        first = builder.build(blobs)
        second = builder.build(blobs)
        assert np.array_equal(first.coreset.points, second.coreset.points)
        other_seed = ShardedCoresetBuilder(
            UniformSampling(seed=0), n_shards=3, coreset_size_per_shard=50, seed=2
        ).build(blobs)
        assert not np.array_equal(first.coreset.points, other_seed.coreset.points)


class TestShardedBuilderBehaviour:
    def test_round_accounting(self, blobs):
        builder = ShardedCoresetBuilder(
            SensitivitySampling(k=5, seed=0), n_shards=4, coreset_size_per_shard=40, seed=0
        )
        result = builder.build(blobs)
        assert sum(result.shard_sizes) == blobs.shape[0]
        assert result.message_sizes == [40, 40, 40, 40]
        assert result.coreset.size == 160
        assert result.communication == 160 * (blobs.shape[1] + 1)
        assert result.metadata["sampler"] == "sensitivity"
        assert result.metadata["n_shards"] == 4.0
        assert result.backend == "serial" and result.workers == 1

    def test_final_recompression_bounds_size(self, blobs):
        builder = ShardedCoresetBuilder(
            UniformSampling(seed=0),
            n_shards=4,
            coreset_size_per_shard=80,
            final_coreset_size=100,
            seed=0,
        )
        result = builder.build(blobs)
        assert result.coreset.size == 100
        assert result.message_sizes == [80, 80, 80, 80]

    def test_total_weight_approximately_preserved(self, blobs, rng):
        weights = rng.uniform(0.5, 1.5, size=blobs.shape[0])
        builder = ShardedCoresetBuilder(
            UniformSampling(seed=0), n_shards=3, coreset_size_per_shard=60, seed=0
        )
        result = builder.build(blobs, weights=weights)
        assert result.coreset.total_weight == pytest.approx(weights.sum(), rel=0.2)

    def test_union_is_accurate_coreset(self, blobs):
        builder = ShardedCoresetBuilder(
            SensitivitySampling(k=6, seed=0), n_shards=4, coreset_size_per_shard=80, seed=0
        )
        result = builder.build(blobs)
        assert coreset_distortion(blobs, result.coreset, k=6, seed=2) < 2.0

    def test_message_sizes_independent_of_shard_sizes(self, blobs):
        # The coreset property Section 2.3 relies on: a shard sends what it
        # was asked for, however many points it received.
        builder = ShardedCoresetBuilder(
            UniformSampling(seed=0), n_shards=7, coreset_size_per_shard=30, seed=1
        )
        result = builder.build(blobs)
        assert result.shard_sizes == [215, 215, 214, 214, 214, 214, 214]
        assert result.message_sizes == [30] * 7

    def test_shuffled_shards_are_disjoint(self, blobs):
        builder = ShardedCoresetBuilder(
            UniformSampling(seed=0), n_shards=3, coreset_size_per_shard=200, seed=4
        )
        result = builder.build(blobs)
        input_rows = {tuple(row) for row in blobs}
        shard_rows = [{tuple(row) for row in shard.points} for shard in result.shard_coresets]
        assert all(rows <= input_rows for rows in shard_rows)
        assert not shard_rows[0] & shard_rows[1]
        assert not shard_rows[0] & shard_rows[2]
        assert not shard_rows[1] & shard_rows[2]

    def test_unweighted_total_weight_approximately_preserved(self, blobs):
        builder = ShardedCoresetBuilder(
            SensitivitySampling(k=6, seed=0), n_shards=4, coreset_size_per_shard=80, seed=0
        )
        result = builder.build(blobs)
        assert result.coreset.total_weight == pytest.approx(blobs.shape[0], rel=0.3)

    def test_plain_union_is_named_and_not_offloaded(self, blobs):
        builder = ShardedCoresetBuilder(
            SensitivitySampling(k=5, seed=0), n_shards=4, coreset_size_per_shard=40, seed=0
        )
        result = builder.build(blobs)
        assert result.coreset.method == "sharded[sensitivity]"
        assert result.diagnostics.reduces_offloaded == 0.0

    def test_final_recompression_is_offloaded_and_named(self, blobs):
        builder = ShardedCoresetBuilder(
            SensitivitySampling(k=5, seed=0),
            n_shards=4,
            coreset_size_per_shard=100,
            final_coreset_size=150,
            seed=0,
        )
        result = builder.build(blobs)
        assert result.coreset.size == 150
        assert result.coreset.method == "sharded[sensitivity]"
        assert result.diagnostics.reduces_offloaded == 1.0

    @pytest.mark.parallel
    def test_process_backend_reported_outside_metadata(self, blobs):
        builder = ShardedCoresetBuilder(
            UniformSampling(seed=0), n_shards=4, coreset_size_per_shard=50, seed=0
        )
        with ProcessAsyncExecutor(workers=2) as executor:
            result = builder.build(blobs, executor=executor)
        assert result.backend == "process" and result.workers == 2
        assert result.metadata == {"sampler": "uniform", "n_shards": 4.0, "shuffle": 1.0}

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError, match="n_shards"):
            ShardedCoresetBuilder(UniformSampling(seed=0), n_shards=0, coreset_size_per_shard=10)

    def test_shuffle_false_keeps_input_order_shards(self, blobs):
        builder = ShardedCoresetBuilder(
            UniformSampling(seed=0),
            n_shards=2,
            coreset_size_per_shard=30,
            shuffle=False,
            seed=0,
        )
        result = builder.build(blobs)
        half = blobs.shape[0] // 2
        first_shard_rows = {tuple(row) for row in blobs[:half]}
        shard_coreset_rows = {tuple(row) for row in result.shard_coresets[0].points}
        assert shard_coreset_rows <= first_shard_rows

    def test_more_shards_than_points(self):
        points = np.random.default_rng(0).normal(size=(6, 3))
        builder = ShardedCoresetBuilder(
            UniformSampling(seed=0), n_shards=10, coreset_size_per_shard=2, seed=0
        )
        result = builder.build(points)
        assert len(result.shard_sizes) == 6
        assert result.coreset.size == 6

    def test_worker_count_never_keys_the_result(self, blobs):
        # The documented contract: n_shards keys the coreset, workers do not.
        builder = ShardedCoresetBuilder(
            FastCoreset(k=5, seed=0), n_shards=5, coreset_size_per_shard=40, seed=9
        )
        one = builder.build(blobs, executor="thread")
        with ThreadAsyncExecutor(workers=5) as executor:
            many = builder.build(blobs, executor=executor)
        _assert_identical(one, many, "workers=1 vs workers=5")


class TestStreamingExecutorEquivalence:
    def _run(self, blobs, sampler, executor, batch_size=None, seed=13):
        pipeline = StreamingCoresetPipeline(
            sampler=sampler,
            coreset_size=50,
            seed=seed,
            executor=executor,
            batch_size=batch_size,
        )
        stream = DataStream(points=blobs, block_size=150)
        return pipeline.run_with_statistics(stream)

    @pytest.mark.parametrize("sampler_name", SAMPLER_NAMES)
    def test_batching_and_threads_never_change_the_coreset(self, blobs, sampler_name):
        sampler = _make_sampler(sampler_name)
        reference, reference_stats = self._run(
            blobs, sampler, SerialAsyncExecutor(), batch_size=1
        )
        for executor, batch_size in (
            (SerialAsyncExecutor(), 4),
            (ThreadAsyncExecutor(workers=2), None),
            (ThreadAsyncExecutor(workers=3), 5),
        ):
            with executor:
                coreset, stats = self._run(blobs, sampler, executor, batch_size)
            assert np.array_equal(reference.points, coreset.points), sampler_name
            assert np.array_equal(reference.weights, coreset.weights), sampler_name
            assert stats == reference_stats, sampler_name

    @pytest.mark.parallel
    def test_process_backend_matches_serial(self, blobs):
        sampler = FastCoreset(k=5, seed=0)
        reference, reference_stats = self._run(
            blobs, sampler, SerialAsyncExecutor(), batch_size=1
        )
        with ProcessAsyncExecutor(workers=2) as executor:
            coreset, stats = self._run(blobs, sampler, executor)
        assert np.array_equal(reference.points, coreset.points)
        assert np.array_equal(reference.weights, coreset.weights)
        assert stats == reference_stats

    def test_legacy_sequential_path_untouched_by_new_fields(self, blobs):
        # executor=None must keep the historical draw-order seed stream:
        # the result matches a pipeline constructed without the new fields.
        sampler = UniformSampling(seed=0)
        stream = DataStream(points=blobs, block_size=150)
        legacy = StreamingCoresetPipeline(sampler=sampler, coreset_size=50, seed=3).run(stream)
        explicit = StreamingCoresetPipeline(
            sampler=sampler, coreset_size=50, seed=3, executor=None, batch_size=None
        ).run(DataStream(points=blobs, block_size=150))
        assert np.array_equal(legacy.points, explicit.points)
        assert np.array_equal(legacy.weights, explicit.weights)

    def test_add_blocks_requires_spawn_seeds(self, blobs):
        from repro.streaming import MergeReduceTree

        tree = MergeReduceTree(sampler=UniformSampling(seed=0), coreset_size=40, seed=0)
        with pytest.raises(ValueError, match="spawn_seeds"):
            tree.add_blocks([(blobs[:100], None)])
