"""Unit tests for repro.distributed.mapreduce."""

import numpy as np
import pytest

from repro.core import SensitivitySampling, UniformSampling
from repro.distributed import MapReduceCoresetAggregator
from repro.evaluation import coreset_distortion
from repro.parallel import ProcessAsyncExecutor, SerialAsyncExecutor, ThreadAsyncExecutor


class TestMapReduceAggregator:
    @pytest.fixture(scope="class")
    def aggregator(self):
        return MapReduceCoresetAggregator(
            sampler=SensitivitySampling(k=6, seed=0),
            n_workers=4,
            coreset_size_per_worker=80,
            seed=0,
        )

    def test_shards_partition_the_data(self, aggregator, blobs):
        generator = np.random.default_rng(0)
        shards = aggregator.partition(blobs.shape[0], generator)
        combined = np.concatenate(shards)
        assert sorted(combined.tolist()) == list(range(blobs.shape[0]))

    def test_union_size_is_sum_of_messages(self, aggregator, blobs):
        result = aggregator.run(blobs)
        assert result.coreset.size == sum(result.message_sizes)
        assert len(result.worker_coresets) == 4

    def test_message_sizes_independent_of_shard_sizes(self, blobs):
        # The coreset property the MapReduce discussion relies on: the message
        # size is whatever the worker was asked for, not the shard size.
        aggregator = MapReduceCoresetAggregator(
            sampler=UniformSampling(seed=0),
            n_workers=5,
            coreset_size_per_worker=30,
            seed=1,
        )
        result = aggregator.run(blobs)
        assert all(size == 30 for size in result.message_sizes)

    def test_communication_accounting(self, aggregator, blobs):
        result = aggregator.run(blobs)
        expected = sum(result.message_sizes) * (blobs.shape[1] + 1)
        assert result.communication == expected

    def test_total_weight_preserved(self, aggregator, blobs):
        result = aggregator.run(blobs)
        assert result.coreset.total_weight == pytest.approx(blobs.shape[0], rel=0.3)

    def test_union_is_accurate_coreset(self, aggregator, blobs):
        result = aggregator.run(blobs)
        assert coreset_distortion(blobs, result.coreset, k=6, seed=2) < 2.0

    def test_final_recompression(self, blobs):
        aggregator = MapReduceCoresetAggregator(
            sampler=SensitivitySampling(k=5, seed=0),
            n_workers=4,
            coreset_size_per_worker=100,
            final_coreset_size=150,
            seed=0,
        )
        result = aggregator.run(blobs)
        assert result.coreset.size <= 150

    def test_more_workers_than_points(self):
        points = np.random.default_rng(0).normal(size=(6, 3))
        aggregator = MapReduceCoresetAggregator(
            sampler=UniformSampling(seed=0), n_workers=10, coreset_size_per_worker=2, seed=0
        )
        result = aggregator.run(points)
        assert result.coreset.size >= 1

    def test_weighted_input(self, blobs, rng):
        weights = rng.uniform(0.5, 1.5, size=blobs.shape[0])
        aggregator = MapReduceCoresetAggregator(
            sampler=UniformSampling(seed=0), n_workers=3, coreset_size_per_worker=50, seed=0
        )
        result = aggregator.run(blobs, weights=weights)
        assert result.coreset.total_weight == pytest.approx(weights.sum(), rel=0.2)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MapReduceCoresetAggregator(
                sampler=UniformSampling(), n_workers=0, coreset_size_per_worker=10
            )

    def test_metadata_records_sampler_name(self, aggregator, blobs):
        # Regression: this slot used to hold a meaningless float(0.0).
        result = aggregator.run(blobs)
        assert result.metadata["sampler"] == "sensitivity"
        assert result.metadata["n_workers"] == 4.0


class TestMapReduceExecutorPath:
    @pytest.fixture(scope="class")
    def aggregator(self):
        return MapReduceCoresetAggregator(
            sampler=SensitivitySampling(k=6, seed=0),
            n_workers=4,
            coreset_size_per_worker=80,
            seed=0,
        )

    def test_serial_executor_matches_thread_executor(self, aggregator, blobs):
        serial = aggregator.run(blobs, executor="serial")
        with ThreadAsyncExecutor(workers=3) as executor:
            threaded = aggregator.run(blobs, executor=executor)
        assert np.array_equal(serial.coreset.points, threaded.coreset.points)
        assert np.array_equal(serial.coreset.weights, threaded.coreset.weights)
        assert serial.shard_sizes == threaded.shard_sizes
        assert serial.communication == threaded.communication

    @pytest.mark.parallel
    def test_serial_executor_matches_process_executor(self, aggregator, blobs):
        serial = aggregator.run(blobs, executor=SerialAsyncExecutor())
        with ProcessAsyncExecutor(workers=2) as executor:
            process = aggregator.run(blobs, executor=executor)
        assert np.array_equal(serial.coreset.points, process.coreset.points)
        assert np.array_equal(serial.coreset.weights, process.coreset.weights)
        assert process.metadata["backend"] == "process"
        assert process.metadata["workers"] == 2.0

    def test_executor_round_keeps_mapreduce_accounting(self, aggregator, blobs):
        result = aggregator.run(blobs, executor="serial")
        assert result.coreset.size == sum(result.message_sizes)
        assert sum(result.shard_sizes) == blobs.shape[0]
        assert result.communication == sum(result.message_sizes) * (blobs.shape[1] + 1)
        assert result.coreset.method == "mapreduce[sensitivity]"
        assert result.metadata["sampler"] == "sensitivity"
        assert len(result.worker_coresets) == 4

    def test_executor_union_is_accurate_coreset(self, aggregator, blobs):
        result = aggregator.run(blobs, executor="serial")
        assert coreset_distortion(blobs, result.coreset, k=6, seed=2) < 2.0

    def test_final_recompression_with_executor(self, blobs):
        aggregator = MapReduceCoresetAggregator(
            sampler=SensitivitySampling(k=5, seed=0),
            n_workers=4,
            coreset_size_per_worker=100,
            final_coreset_size=150,
            seed=0,
        )
        result = aggregator.run(blobs, executor="serial")
        assert result.coreset.size <= 150
