"""Integration tests: end-to-end pipelines and the paper's qualitative claims.

These tests cross module boundaries on purpose: dataset generator → sampler →
streaming / distributed composition → distortion metric → downstream solver,
checking the *qualitative* results the paper reports (who fails where), not
just that the plumbing runs.
"""

import numpy as np
import pytest

from repro.clustering.lloyd import kmeans
from repro.core import (
    FastCoreset,
    LightweightCoreset,
    SensitivitySampling,
    UniformSampling,
    WelterweightCoreset,
)
from repro.data.synthetic import c_outlier_dataset, gaussian_mixture, geometric_dataset
from repro.evaluation import coreset_distortion, solution_cost_on_dataset
from repro.experiments.cluster_capture import small_central_cluster_dataset
from repro.parallel import ShardedCoresetBuilder
from repro.streaming import DataStream, StreamingCoresetPipeline


class TestSpeedAccuracyTradeoff:
    """The paper's core qualitative claim: faster samplers are more brittle."""

    def test_uniform_fails_on_c_outlier_fast_coreset_does_not(self):
        failures_uniform = 0
        failures_fast = 0
        for seed in range(6):
            data = c_outlier_dataset(n=3000, d=8, n_outliers=8, outlier_distance=800.0, seed=seed).points
            uniform = UniformSampling(seed=seed).sample(data, 90)
            fast = FastCoreset(k=4, seed=seed).sample(data, 90)
            if coreset_distortion(data, uniform, k=4, seed=seed + 50) > 5.0:
                failures_uniform += 1
            if coreset_distortion(data, fast, k=4, seed=seed + 50) > 5.0:
                failures_fast += 1
        assert failures_uniform >= 1, "uniform sampling should fail on some c-outlier runs"
        assert failures_fast == 0, "Fast-Coresets must never fail on c-outlier"

    def test_lightweight_misses_central_cluster_more_often_than_sensitivity(self):
        dataset = small_central_cluster_dataset(n=12_000, small_cluster_size=150, seed=0)
        small_members = set(np.flatnonzero(dataset.labels == dataset.labels.max()).tolist())
        lightweight_hits, sensitivity_hits = 0, 0
        for seed in range(8):
            light = LightweightCoreset(seed=seed).sample(dataset.points, 100)
            sens = SensitivitySampling(k=9, seed=seed).sample(dataset.points, 100)
            lightweight_hits += sum(1 for i in light.indices.tolist() if i in small_members)
            sensitivity_hits += sum(1 for i in sens.indices.tolist() if i in small_members)
        assert sensitivity_hits > lightweight_hits

    def test_all_sensitivity_based_methods_accurate_on_balanced_data(self, blobs):
        for sampler in (
            LightweightCoreset(seed=0),
            WelterweightCoreset(k=6, seed=0),
            SensitivitySampling(k=6, seed=0),
            FastCoreset(k=6, seed=0),
        ):
            coreset = sampler.sample(blobs, 300)
            assert coreset_distortion(blobs, coreset, k=6, seed=1) < 1.6, sampler.name

    def test_imbalance_hurts_lightweight_more_than_fast_coreset(self):
        distortion_light, distortion_fast = [], []
        for seed in range(4):
            data = gaussian_mixture(n=6000, d=10, n_clusters=12, gamma=4.5, seed=seed).points
            light = LightweightCoreset(seed=seed).sample(data, 240)
            fast = FastCoreset(k=12, seed=seed).sample(data, 240)
            distortion_light.append(coreset_distortion(data, light, k=12, seed=seed + 20))
            distortion_fast.append(coreset_distortion(data, fast, k=12, seed=seed + 20))
        assert np.mean(distortion_fast) <= np.mean(distortion_light) + 0.5


class TestStreamingPipelineEndToEnd:
    def test_every_sampler_survives_composition(self, blobs):
        for sampler in (
            UniformSampling(seed=0),
            LightweightCoreset(seed=0),
            WelterweightCoreset(k=6, seed=0),
            FastCoreset(k=6, seed=0),
        ):
            pipeline = StreamingCoresetPipeline(sampler=sampler, coreset_size=250, seed=0)
            coreset = pipeline.run(DataStream(points=blobs, block_size=300))
            assert coreset.size <= 250
            assert coreset_distortion(blobs, coreset, k=6, seed=1) < 3.0, sampler.name

    def test_streaming_not_much_worse_than_static(self, blobs):
        sampler = SensitivitySampling(k=6, seed=0)
        static = sampler.sample(blobs, 300)
        streaming = StreamingCoresetPipeline(sampler=sampler, coreset_size=300, seed=0).run(
            DataStream(points=blobs, block_size=250)
        )
        static_distortion = coreset_distortion(blobs, static, k=6, seed=1)
        streaming_distortion = coreset_distortion(blobs, streaming, k=6, seed=1)
        assert streaming_distortion < static_distortion * 2.5


class TestDistributedPipelineEndToEnd:
    def test_mapreduce_matches_single_machine_quality(self, blobs):
        sampler = SensitivitySampling(k=6, seed=0)
        single = sampler.sample(blobs, 320)
        distributed = ShardedCoresetBuilder(
            sampler, n_shards=4, coreset_size_per_shard=80, seed=0
        ).build(blobs)
        single_distortion = coreset_distortion(blobs, single, k=6, seed=1)
        distributed_distortion = coreset_distortion(blobs, distributed.coreset, k=6, seed=1)
        assert distributed_distortion < single_distortion * 2.0


class TestDownstreamClustering:
    def test_coreset_solution_close_to_full_data_solution(self, blobs):
        full = kmeans(blobs, 6, seed=0)
        coreset = FastCoreset(k=6, seed=0).sample(blobs, 400)
        coreset_cost = solution_cost_on_dataset(blobs, coreset, 6, seed=0)
        assert coreset_cost <= full.cost * 1.5

    def test_geometric_dataset_downstream(self):
        data = geometric_dataset(n=4000, d=12, k=8, seed=0).points
        coreset = SensitivitySampling(k=8, seed=0).sample(data, 320)
        cost = solution_cost_on_dataset(data, coreset, 8, seed=1)
        full = kmeans(data, 8, seed=1)
        assert cost <= max(full.cost * 2.0, full.cost + 1e-6)
