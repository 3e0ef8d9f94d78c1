"""Unit tests for repro.streaming (stream, merge-&-reduce, BICO, StreamKM++)."""

import hashlib

import numpy as np
import pytest

from repro import observability as obs
from repro.clustering.kmeans_pp import kmeans_plus_plus
from repro.config import ExperimentScale
from repro.core import SensitivitySampling, UniformSampling
from repro.data.registry import load_dataset
from repro.evaluation import coreset_distortion
from repro.native.registry import use_native
from repro.parallel import SerialAsyncExecutor, ThreadAsyncExecutor
from repro.streaming import (
    BicoCoreset,
    ClusteringFeature,
    DataStream,
    MergeReduceTree,
    SlidingCountWindow,
    StreamKMPlusPlus,
    StreamingCoresetPipeline,
    WindowedMergeReduceTree,
    block_size_plan,
    iterate_blocks,
)
from repro.streaming.merge_reduce import level_pattern, stream_dataset


class TestDataStream:
    def test_blocks_cover_all_points(self, blobs):
        stream = DataStream(points=blobs, block_size=100)
        total = sum(block.shape[0] for block, _ in stream)
        assert total == blobs.shape[0]

    def test_block_size_respected(self, blobs):
        for block, _ in DataStream(points=blobs, block_size=64):
            assert block.shape[0] <= 64

    def test_n_blocks_property(self, blobs):
        stream = DataStream(points=blobs, block_size=100)
        assert stream.n_blocks == int(np.ceil(blobs.shape[0] / 100))
        assert stream.dimension == blobs.shape[1]

    def test_with_block_count(self, blobs):
        stream = DataStream.with_block_count(blobs, 7)
        assert len(list(stream)) == 7

    def test_weights_carried_through(self, blobs, rng):
        weights = rng.uniform(1, 2, size=blobs.shape[0])
        stream = DataStream(points=blobs, block_size=200, weights=weights)
        total_weight = sum(block_weights.sum() for _, block_weights in stream)
        assert total_weight == pytest.approx(weights.sum())

    def test_shuffle_changes_order_not_content(self, blobs):
        plain = np.concatenate([b for b, _ in iterate_blocks(blobs, 100)])
        shuffled = np.concatenate([b for b, _ in iterate_blocks(blobs, 100, shuffle=True, seed=0)])
        assert not np.allclose(plain, shuffled)
        np.testing.assert_allclose(np.sort(plain, axis=0), np.sort(shuffled, axis=0))

    def test_replayable(self, blobs):
        stream = DataStream(points=blobs, block_size=300)
        assert len(list(stream)) == len(list(stream))


class TestBlockCountContract:
    """Regression: ``with_block_count`` must emit exactly what it promises.

    The old ``ceil``-sized uniform split could emit fewer blocks (6 points
    over 4 blocks gave 3 blocks of 2); the remainder is now spread over the
    leading blocks instead.
    """

    @pytest.mark.parametrize("n", [1, 2, 5, 6, 7, 23, 100, 1500])
    @pytest.mark.parametrize("n_blocks", [1, 2, 3, 4, 7, 10])
    def test_exact_block_count_over_lattice(self, rng, n, n_blocks):
        points = rng.normal(size=(n, 3))
        stream = DataStream.with_block_count(points, n_blocks)
        blocks = list(stream)
        assert len(blocks) == min(n, n_blocks)
        assert stream.n_blocks == len(blocks)
        sizes = [block.shape[0] for block, _ in blocks]
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        np.testing.assert_array_equal(
            np.concatenate([block for block, _ in blocks]), points
        )

    def test_plan_spreads_remainder_over_leading_blocks(self):
        assert block_size_plan(6, 4) == (2, 2, 1, 1)
        assert block_size_plan(10, 3) == (4, 3, 3)
        assert block_size_plan(8, 4) == (2, 2, 2, 2)
        assert block_size_plan(3, 5) == (1, 1, 1)

    def test_weights_follow_the_plan(self, blobs, rng):
        weights = rng.uniform(1, 2, size=blobs.shape[0])
        stream = DataStream.with_block_count(blobs, 7, weights=weights)
        covered = np.concatenate([block_weights for _, block_weights in stream])
        np.testing.assert_array_equal(covered, weights)


class TestStreamMemoryContracts:
    """Regression: unshuffled blocks are views; unit weights stay lazy."""

    def test_unshuffled_blocks_are_contiguous_views(self, blobs):
        for block, _ in iterate_blocks(blobs, 100):
            assert np.shares_memory(block, blobs)
            assert block.flags.c_contiguous
        for block, _ in DataStream.with_block_count(blobs, 7):
            assert np.shares_memory(block, blobs)

    def test_shuffled_blocks_are_copies(self, blobs):
        for block, _ in iterate_blocks(blobs, 100, shuffle=True, seed=0):
            assert not np.shares_memory(block, blobs)

    def test_unit_weight_default_is_lazy(self, blobs):
        stream = DataStream(points=blobs, block_size=200)
        # No full-stream np.ones(n) may ever be materialised ...
        assert stream.weights is None
        # ... yet every block still carries its own unit-weight vector.
        for block, block_weights in stream:
            assert block_weights.shape == (block.shape[0],)
            np.testing.assert_array_equal(block_weights, 1.0)

    def test_with_block_count_does_not_scan_memmaps(self, tmp_path, blobs):
        # Routing through _check_stream_points: a construction-time
        # finiteness scan would page in the whole file.
        corrupted = blobs.copy()
        corrupted[123, 1] = np.nan
        path = tmp_path / "nan_counted.npy"
        np.save(path, corrupted)
        mapped = np.load(str(path), mmap_mode="r")
        stream = DataStream.with_block_count(mapped, 5)  # must not raise
        assert stream.n_blocks == 5
        assert any(np.isnan(block).any() for block, _ in stream)


class TestDataStreamFromNpy:
    @pytest.fixture
    def npy_file(self, tmp_path, blobs):
        path = tmp_path / "dataset.npy"
        np.save(path, blobs)
        return str(path)

    def test_blocks_match_in_memory_stream(self, npy_file, blobs):
        disk = list(DataStream.from_npy(npy_file, block_size=200))
        memory = list(DataStream(points=blobs, block_size=200))
        assert len(disk) == len(memory)
        for (disk_points, disk_weights), (mem_points, mem_weights) in zip(disk, memory):
            assert np.array_equal(disk_points, mem_points)
            assert np.array_equal(disk_weights, mem_weights)

    def test_backing_array_is_memory_mapped_not_a_copy(self, npy_file):
        stream = DataStream.from_npy(npy_file, block_size=200)
        # The stream must hold a view into the mmap, never a materialised
        # copy — that is the "never hold the full dataset" contract.
        assert not stream.points.flags.owndata
        base = stream.points
        while not isinstance(base, np.memmap) and base.base is not None:
            base = base.base
        assert isinstance(base, np.memmap)

    def test_weights_shuffle_and_properties(self, npy_file, blobs, rng):
        weights = rng.uniform(1, 2, size=blobs.shape[0])
        stream = DataStream.from_npy(
            npy_file, block_size=300, weights=weights, shuffle=True, seed=4
        )
        assert stream.n_points == blobs.shape[0]
        assert stream.dimension == blobs.shape[1]
        total = sum(block_weights.sum() for _, block_weights in stream)
        assert total == pytest.approx(weights.sum())

    def test_construction_defers_finiteness_to_consumption(self, tmp_path, blobs):
        # A construction-time NaN scan would read (and temporarily allocate
        # 1/8th of) the whole file, defeating mmap; the contract is that the
        # bad value surfaces when its block reaches a validating consumer.
        corrupted = blobs.copy()
        corrupted[700, 2] = np.nan
        path = tmp_path / "nan.npy"
        np.save(path, corrupted)
        stream = DataStream.from_npy(str(path), block_size=200)  # must not raise
        blocks = list(stream)
        assert any(np.isnan(points).any() for points, _ in blocks)
        pipeline = StreamingCoresetPipeline(
            sampler=UniformSampling(seed=0), coreset_size=60, seed=0
        )
        with pytest.raises(ValueError, match="NaN"):
            pipeline.run(stream)

    def test_non_float64_file_rejected(self, tmp_path, blobs):
        path = tmp_path / "f32.npy"
        np.save(path, blobs.astype(np.float32))
        with pytest.raises(ValueError, match="float64"):
            DataStream.from_npy(str(path), block_size=100)

    def test_non_2d_file_rejected(self, tmp_path):
        path = tmp_path / "flat.npy"
        np.save(path, np.arange(10.0))
        with pytest.raises(ValueError, match="2-dimensional"):
            DataStream.from_npy(str(path), block_size=5)

    def test_feeds_the_streaming_pipeline(self, npy_file, blobs):
        pipeline = StreamingCoresetPipeline(
            sampler=UniformSampling(seed=0), coreset_size=60, seed=0
        )
        from_disk = pipeline.run(DataStream.from_npy(npy_file, block_size=250))
        in_memory = pipeline.run(DataStream(points=blobs, block_size=250))
        assert np.array_equal(from_disk.points, in_memory.points)
        assert np.array_equal(from_disk.weights, in_memory.weights)


class TestMergeReduce:
    def test_final_coreset_size_bounded(self, blobs):
        pipeline = StreamingCoresetPipeline(sampler=UniformSampling(seed=0), coreset_size=120, seed=0)
        coreset = pipeline.run(DataStream(points=blobs, block_size=200))
        assert coreset.size <= 120

    def test_total_weight_preserved_approximately(self, blobs):
        pipeline = StreamingCoresetPipeline(
            sampler=SensitivitySampling(k=5, seed=0), coreset_size=150, seed=0
        )
        coreset = pipeline.run(DataStream(points=blobs, block_size=250))
        assert coreset.total_weight == pytest.approx(blobs.shape[0], rel=0.35)

    def test_streaming_distortion_reasonable(self, blobs):
        coreset = stream_dataset(
            blobs, SensitivitySampling(k=6, seed=0), coreset_size=300, n_blocks=8, seed=0
        )
        assert coreset_distortion(blobs, coreset, k=6, seed=1) < 2.0

    def test_method_records_sampler(self, blobs):
        coreset = stream_dataset(blobs, UniformSampling(seed=0), coreset_size=100, n_blocks=4, seed=0)
        assert coreset.method == "merge_reduce[uniform]"

    def test_tree_reduction_count_grows_with_blocks(self, blobs):
        tree = MergeReduceTree(sampler=UniformSampling(seed=0), coreset_size=60, seed=0)
        for block, weights in DataStream(points=blobs, block_size=100):
            tree.add_block(block, weights)
        tree.finalize()
        assert tree.blocks_seen == int(np.ceil(blobs.shape[0] / 100))
        assert tree.reductions >= tree.blocks_seen // 2

    def test_finalize_without_blocks_raises(self):
        tree = MergeReduceTree(sampler=UniformSampling(seed=0), coreset_size=10, seed=0)
        with pytest.raises(ValueError):
            tree.finalize()

    def test_counters_are_not_constructor_parameters(self):
        with pytest.raises(TypeError, match="reductions"):
            MergeReduceTree(sampler=UniformSampling(seed=0), coreset_size=10, seed=0, reductions=5)

    def test_run_with_statistics(self, blobs):
        pipeline = StreamingCoresetPipeline(sampler=UniformSampling(seed=0), coreset_size=80, seed=0)
        coreset, statistics = pipeline.run_with_statistics(DataStream(points=blobs, block_size=300))
        assert statistics["blocks"] == pytest.approx(np.ceil(blobs.shape[0] / 300))
        assert statistics["coreset_size"] == coreset.size

    def test_level_pattern_binary_counter_invariant(self):
        # For 7 blocks the surviving groups cover 7 = 1 + 2 + 4 blocks (one
        # group per set bit); 8 blocks collapse into a single group.
        groups = level_pattern(7)
        assert sorted(len(g) for g in groups) == [1, 2, 4]
        assert sorted(sum(groups, [])) == list(range(1, 8))
        assert [len(g) for g in level_pattern(8)] == [8]

    def test_level_pattern_partitions_blocks(self):
        for n_blocks in (1, 3, 5, 13):
            groups = level_pattern(n_blocks)
            assert sorted(sum(groups, [])) == list(range(1, n_blocks + 1))


class TestFinalizeTrace:
    """The final re-compression is traced like every other host reduce."""

    @staticmethod
    def _traced_finalize(blobs, n_blocks):
        tree = MergeReduceTree(sampler=UniformSampling(seed=0), coreset_size=60, seed=0)
        with obs.tracing() as recorder:
            for block, weights in DataStream.with_block_count(blobs, n_blocks):
                tree.add_block(block, weights)
            tree.finalize()
        return tree, recorder.spans

    def test_twelve_blocks_reduce_once_inside_finalize(self, blobs):
        # 12 = 8 + 4: two survivors outgrow m, so finalize re-compresses.
        tree, spans = self._traced_finalize(blobs, 12)
        assert tree.host_reduces == 1
        (reduce,) = [span for span in spans if span.name == "stream.host_reduce"]
        (finalize,) = [span for span in spans if span.name == "stream.finalize"]
        assert reduce.depth == finalize.depth + 1
        assert finalize.start <= reduce.start
        assert reduce.start + reduce.duration <= finalize.start + finalize.duration
        assert reduce.args == {"rows": 120}

    def test_sixteen_blocks_finalize_without_a_reduce(self, blobs):
        # One survivor of size m: nothing to re-compress, nothing traced.
        tree, spans = self._traced_finalize(blobs, 16)
        assert tree.host_reduces == 0
        assert not [span for span in spans if span.name == "stream.host_reduce"]


class TestClusteringFeature:
    def test_from_point_and_centroid(self):
        feature = ClusteringFeature.from_point(np.array([2.0, 4.0]), 3.0)
        np.testing.assert_allclose(feature.centroid, [2.0, 4.0])
        assert feature.weight == 3.0
        assert feature.internal_cost == pytest.approx(0.0)

    def test_absorb_updates_statistics(self):
        feature = ClusteringFeature.from_point(np.array([0.0, 0.0]), 1.0)
        feature.absorb(np.array([2.0, 0.0]), 1.0)
        np.testing.assert_allclose(feature.centroid, [1.0, 0.0])
        # SSE of two unit-weight points around their mean is 1 + 1 = 2.
        assert feature.internal_cost == pytest.approx(2.0)

    def test_merge_cost_formula(self):
        feature = ClusteringFeature.from_point(np.array([0.0]), 1.0)
        # delta = w * W / (w + W) * ||p - c||^2 = 1 * 1 / 2 * 4 = 2.
        assert feature.merge_cost(np.array([2.0]), 1.0) == pytest.approx(2.0)


class TestBico:
    def test_respects_coreset_size(self, blobs):
        coreset = BicoCoreset(coreset_size=100, seed=0).sample(blobs, 100)
        assert coreset.size <= 100

    def test_total_weight_exact(self, blobs):
        coreset = BicoCoreset(coreset_size=100, seed=0).sample(blobs, 100)
        assert coreset.total_weight == pytest.approx(blobs.shape[0])

    def test_streaming_interface(self, blobs):
        bico = BicoCoreset(coreset_size=150, seed=0)
        for block, weights in DataStream(points=blobs, block_size=250):
            bico.insert_block(block, weights)
        coreset = bico.to_coreset()
        assert coreset.size <= 150
        assert coreset.total_weight == pytest.approx(blobs.shape[0])

    def test_to_coreset_without_points_raises(self):
        with pytest.raises(ValueError):
            BicoCoreset(coreset_size=10).to_coreset()

    def test_reset_clears_state(self, blobs):
        bico = BicoCoreset(coreset_size=50, seed=0)
        bico.insert_block(blobs[:100])
        bico.reset()
        assert bico.points_seen == 0
        with pytest.raises(ValueError):
            bico.to_coreset()

    def test_quantisation_quality_reasonable(self, blobs):
        # BICO is a decent quantiser even if its coreset distortion is weak.
        coreset = BicoCoreset(coreset_size=200, seed=0).sample(blobs, 200)
        distortion = coreset_distortion(blobs, coreset, k=6, seed=1)
        assert distortion < 10.0


#: Small inputs for the BICO output pins: three registry datasets, a
#: duplicate flood (50 distinct rows, 60 copies each) and noise at a 1e8
#: offset, whose nearest-feature decisions need the exact primitive.
_BICO_PIN_SCALE = ExperimentScale(synthetic_n=3000, synthetic_d=10, dataset_fraction=0.01)


def _bico_pin_points(name):
    if name == "flood":
        return np.repeat(np.random.default_rng(0).normal(size=(50, 4)), 60, axis=0)
    if name == "offset":
        return 1e8 + np.random.default_rng(1).normal(size=(3000, 5))
    return load_dataset(name, scale=_BICO_PIN_SCALE, seed=0).points


class TestBicoPinnedOutputs:
    """BICO's coresets, byte for byte: SHA-256 of the points and weights,
    the rebuild count and the final threshold.  The rebuild loop may change
    how it finds each feature's nearest neighbour, never what it finds."""

    @pytest.mark.parametrize(
        "name,m,rebuilds,threshold,digest",
        [
            pytest.param(name, m, rebuilds, threshold, digest, id=f"{name}-{m}")
            for name, m, rebuilds, threshold, digest in (
                ("c_outlier", 100, 6, "0x1.988b9cf8f1734p-20",
                 "5a2a1eac35cecdb03e1765923ef9cb641290f56cee3c6b63006e766e969b8733"),
                ("c_outlier", 200, 5, "0x1.988b9cf8f1734p-21",
                 "aa5a4238e88054e03ab004b4330b2f8394122482b125837baf4c5a8e93641989"),
                ("gaussian", 100, 11, "0x1.27d8e16438de6p+9",
                 "1476efa9eeb77f6fed9fb2ef50dd33778a65803b242fa1c04779135eda096099"),
                ("adult", 200, 7, "0x1.9d29377157561p+11",
                 "0cd8c5f60efa959b19cc03f1ef0401a517299394e990fa7d4256d57b46e4c4f3"),
                ("flood", 100, 6, "0x1.19799812dea11p-35",
                 "638e582deb1244ff29e88e93803bf9c1e434973ee9526adeae654d5c7df18b78"),
                ("offset", 100, 8, "0x1.aa0d21e9b1620p+2",
                 "36dc3c7f229227a999e534a6048aab4d6a9da9116ce4312081c2536db77b5e21"),
                ("offset", 200, 7, "0x1.aa0d21e9b1620p+1",
                 "8ebb95f462c6a9848986a3c5f8114ae5a1a59b9af17f9b2ab11c915e59bfc3fd"),
            )
        ],
    )
    def test_coreset_bytes(self, name, m, rebuilds, threshold, digest):
        coreset = BicoCoreset(coreset_size=m, block_size=500).sample(_bico_pin_points(name), m)
        hasher = hashlib.sha256()
        for array in (coreset.points, coreset.weights):
            hasher.update(np.ascontiguousarray(array).tobytes())
        assert int(coreset.metadata["rebuilds"]) == rebuilds
        assert float(coreset.metadata["threshold"]).hex() == threshold
        assert hasher.hexdigest() == digest


class TestBicoFarFromOrigin:
    """BICO on the ``offset`` pin data rebuilds and keeps the same features
    as on the same noise at the origin (``points - 1e8``, exact)."""

    @pytest.mark.parametrize("m", [100, 200])
    def test_offset_matches_the_origin_run(self, m):
        far = _bico_pin_points("offset")
        at_offset = BicoCoreset(coreset_size=m, block_size=500).sample(far, m)
        at_origin = BicoCoreset(coreset_size=m, block_size=500).sample(far - 1e8, m)
        for key in ("rebuilds", "threshold"):
            assert at_offset.metadata[key] == at_origin.metadata[key]
        assert at_offset.size == at_origin.size
        np.testing.assert_array_equal(at_offset.weights, at_origin.weights)


class TestStreamKM:
    def test_respects_coreset_size(self, blobs):
        coreset = StreamKMPlusPlus(seed=0).sample(blobs, 150)
        assert coreset.size <= 150

    def test_total_weight_exact(self, blobs):
        coreset = StreamKMPlusPlus(seed=0).sample(blobs, 150)
        assert coreset.total_weight == pytest.approx(blobs.shape[0])

    def test_streams_through_merge_reduce_tree(self, blobs):
        blocks = list(DataStream(points=blobs, block_size=300))
        coresets = []
        for executor in (SerialAsyncExecutor(), ThreadAsyncExecutor(workers=2)):
            tree = MergeReduceTree(sampler=StreamKMPlusPlus(), coreset_size=120, seed=0)
            try:
                tree.add_blocks(blocks, executor=executor)
                coresets.append(tree.finalize())
            finally:
                executor.close()
        serial, threaded = coresets
        assert serial.size <= 120
        assert serial.total_weight == pytest.approx(blobs.shape[0], rel=1e-9)
        assert threaded.points.tobytes() == serial.points.tobytes()
        assert threaded.weights.tobytes() == serial.weights.tobytes()

    def test_distortion_reasonable_on_easy_data(self, blobs):
        coreset = StreamKMPlusPlus(seed=0).sample(blobs, 300)
        assert coreset_distortion(blobs, coreset, k=6, seed=1) < 3.0

    def test_representatives_without_weight_are_dropped(self):
        # Three locations but ten draws: the surplus representatives repeat
        # a location, attract no point, and leave the coreset.
        locations = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        points = np.repeat(locations, [20, 30, 50], axis=0)
        coreset = StreamKMPlusPlus(seed=0).sample(points, 10)
        weight_at = dict(zip(map(tuple, coreset.points.tolist()), coreset.weights.tolist()))
        assert weight_at == {(0.0, 0.0): 20.0, (5.0, 0.0): 30.0, (0.0, 5.0): 50.0}

    def test_representative_weight_is_its_nearest_points_weight(self, blobs):
        weights = np.random.default_rng(1).uniform(0.5, 2.0, size=blobs.shape[0])
        coreset = StreamKMPlusPlus(seed=3).sample(blobs, 40, weights=weights)
        squared = ((blobs[:, None, :] - coreset.points[None, :, :]) ** 2).sum(axis=2)
        nearest = np.bincount(squared.argmin(axis=1), weights=weights, minlength=coreset.size)
        np.testing.assert_allclose(coreset.weights, nearest, rtol=1e-12)
        assert coreset.total_weight == pytest.approx(weights.sum(), rel=1e-12)

    @pytest.mark.parametrize("z", (1, 2))
    def test_representatives_are_the_kmeanspp_centers(self, blobs, z):
        # The reduction is the shared k-means++ on the same generator.
        coreset = StreamKMPlusPlus(z=z, seed=4).sample(blobs, 60)
        seeding = kmeans_plus_plus(blobs, 60, z=z, seed=4)
        assert coreset.points.tobytes() == seeding.centers.tobytes()

    def test_tiers_agree_bytewise(self, blobs):
        coresets = []
        for native in (True, False):
            with use_native(native):
                coresets.append(StreamKMPlusPlus(seed=0).sample(blobs, 150))
        compiled, fallback = coresets
        assert compiled.points.tobytes() == fallback.points.tobytes()
        assert compiled.weights.tobytes() == fallback.weights.tobytes()

    def test_stream_dataset_runs_the_tree(self, blobs):
        streamed = stream_dataset(blobs, StreamKMPlusPlus(), 120, n_blocks=8, seed=0)
        tree = MergeReduceTree(sampler=StreamKMPlusPlus(), coreset_size=120, seed=0)
        for points, weights in DataStream.with_block_count(blobs, 8):
            tree.add_block(points, weights)
        direct = tree.finalize()
        assert streamed.points.tobytes() == direct.points.tobytes()
        assert streamed.weights.tobytes() == direct.weights.tobytes()
        assert coreset_distortion(blobs, streamed, k=6, seed=1) < 3.0

    def test_sliding_window_keeps_only_the_live_weight(self, blobs):
        tree = WindowedMergeReduceTree(
            sampler=StreamKMPlusPlus(),
            coreset_size=100,
            seed=0,
            window=SlidingCountWindow(blocks=4),
        )
        for points, weights in DataStream(points=blobs, block_size=150):
            tree.add_block(points, weights)
        coreset = tree.query()
        assert coreset.size <= 100
        assert coreset.total_weight == pytest.approx(4 * 150, rel=1e-9)
