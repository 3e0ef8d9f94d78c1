"""Cross-backend equivalence suite for overlapped (async) execution.

This is the acceptance gate of the execution layer: the streaming pipeline
and the sharded builder must produce **byte-identical** coresets — points,
weights, method, and statistics — across

* every backend ({serial, thread, process}),
* every worker count ({1, 2, 4}) and prefetch depth ({1, 2, 4}),
* and every *completion order*, exercised by a deliberately jittered
  executor that finishes tasks in adversarially shuffled order.

The invariance holds because every stochastic input (spawn-keyed seed,
spread hint) is fixed in arrival order *before* a task is submitted, and
results are folded in arrival/shard order regardless of completion order.
Process-pool cases carry the ``parallel`` marker so constrained runners can
deselect them.
"""

import gc
import random
import time
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import FastCoreset, SensitivitySampling
from repro.core.base import CoresetConstruction
from repro.core.coreset import Coreset
from repro.parallel import (
    AsyncExecutor,
    ProcessAsyncExecutor,
    SerialAsyncExecutor,
    ShardedCoresetBuilder,
    ThreadAsyncExecutor,
)
from repro.streaming import DataStream, MergeReduceTree, StreamingCoresetPipeline

BLOCK_SIZE = 120
CORESET_SIZE = 60
SEED = 21


class JitteredAsyncExecutor(AsyncExecutor):
    """Adversarial test double: completes tasks in shuffled order.

    Every task runs on a thread pool after a random delay, so futures
    resolve in an order that has nothing to do with submission order — the
    harness that proves consumers fold results order-independently.  Only
    the two backend hooks are implemented; everything else (submit,
    submit_many, map) is the shared :class:`AsyncExecutor` machinery, so
    the contract itself is exercised too.
    """

    name = "jitter"

    def __init__(self, *, workers: int = 4, seed: int = 0) -> None:
        super().__init__(workers=workers)
        self._delays = random.Random(seed)
        self._pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="jitter")

    def _publish(self, payload, references):
        return payload

    def _submit_task(self, fn, task, handle) -> Future:
        delay = self._delays.random() * 0.01
        return self._pool.submit(self._run, fn, handle, task, delay)

    @staticmethod
    def _run(fn, payload, task, delay):
        time.sleep(delay)
        return fn(payload, task)

    def close(self) -> None:
        self._pool.shutdown(wait=True)


def _make_executor(backend: str, workers: int):
    if backend == "serial":
        return SerialAsyncExecutor()
    if backend == "thread":
        return ThreadAsyncExecutor(workers=workers)
    return ProcessAsyncExecutor(workers=workers)


def _run_pipeline(blobs, executor, *, batch_size=None, prefetch=None):
    """``(coreset, statistics, diagnostics)`` of one pipeline run."""
    pipeline = StreamingCoresetPipeline(
        sampler=SensitivitySampling(k=5, seed=0),
        coreset_size=CORESET_SIZE,
        seed=SEED,
        executor=executor,
        batch_size=batch_size,
        prefetch_batches=prefetch,
    )
    coreset, stats = pipeline.run_with_statistics(
        DataStream(points=blobs, block_size=BLOCK_SIZE)
    )
    return coreset, stats, pipeline.last_diagnostics


def _futures_left_in_cycles(run) -> int:
    """Run ``run()`` with gc off; count the futures only a gc pass frees."""
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return sum(isinstance(garbage, Future) for garbage in gc.garbage)
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if enabled:
            gc.enable()


class _ReduceBomb(CoresetConstruction):
    """Test sampler that compresses leaves fine but explodes on reduces.

    Leaf blocks arrive with unit weights; reduce inputs are merged coreset
    messages whose weights were rescaled by earlier compressions — so a
    non-unit weight identifies a reduce, which is exactly where the bomb
    goes off.  Module-level so the process backend can pickle it.
    """

    name = "reduce_bomb"

    def _sample(self, points, weights, m, seed, spread=None, cost_bound=None):
        if np.any(weights != 1.0):
            raise RuntimeError("reduce bomb")
        scale = weights.sum() / weights[:m].sum()
        return Coreset(points=points[:m], weights=weights[:m] * scale)


def _grid():
    cases = []
    for backend in ("serial", "thread", "process"):
        marks = [pytest.mark.parallel] if backend == "process" else []
        worker_counts = (1,) if backend == "serial" else (1, 2, 4)
        for workers in worker_counts:
            for prefetch in (1, 2, 4):
                cases.append(
                    pytest.param(
                        backend,
                        workers,
                        prefetch,
                        id=f"{backend}-w{workers}-p{prefetch}",
                        marks=marks,
                    )
                )
    return cases


class TestStreamingCrossBackend:
    """The full {backend} x workers x prefetch grid."""

    @pytest.fixture(scope="class")
    def baseline(self, blobs):
        """The serial (spawn-keyed) reference run, one block per batch."""
        return _run_pipeline(blobs, SerialAsyncExecutor(), batch_size=1)

    @pytest.mark.parametrize("backend,workers,prefetch", _grid())
    def test_byte_identical_to_sequential_baseline(
        self, blobs, baseline, backend, workers, prefetch
    ):
        reference, reference_stats, _ = baseline
        executor = _make_executor(backend, workers)
        try:
            coreset, stats, _ = _run_pipeline(blobs, executor, prefetch=prefetch)
        finally:
            executor.close()
        context = (backend, workers, prefetch)
        assert coreset.points.tobytes() == reference.points.tobytes(), context
        assert coreset.weights.tobytes() == reference.weights.tobytes(), context
        assert coreset.method == reference.method, context
        assert stats == reference_stats, context

    @pytest.mark.parametrize("batch_size", (1, 3, 7))
    @pytest.mark.parametrize("prefetch", (1, 2, 4))
    def test_prefetch_and_batching_never_interact(self, blobs, baseline, batch_size, prefetch):
        reference, reference_stats, _ = baseline
        executor = ThreadAsyncExecutor(workers=2)
        try:
            coreset, stats, diagnostics = _run_pipeline(
                blobs, executor, batch_size=batch_size, prefetch=prefetch
            )
        finally:
            executor.close()
        assert coreset.points.tobytes() == reference.points.tobytes()
        assert coreset.weights.tobytes() == reference.weights.tobytes()
        assert stats == reference_stats
        # The pipeline reports the diagnostics of the tree it ran: the
        # reduces rode the pool and leaves were held in flight.
        assert diagnostics.reduces_offloaded > 0
        assert diagnostics.pending_high_water > 0


class TestShuffledCompletionOrder:
    """The jittered harness: completion order must never reach the bytes."""

    # Prefetching one batch holds at most four leaves in flight, so the
    # tree settles leaves mid-stream; three batches hold the whole stream.
    @pytest.mark.parametrize("prefetch", (1, 3))
    @pytest.mark.parametrize("jitter_seed", range(4))
    def test_streaming_is_completion_order_independent(self, blobs, jitter_seed, prefetch):
        reference, reference_stats, _ = _run_pipeline(blobs, SerialAsyncExecutor(), batch_size=1)
        executor = JitteredAsyncExecutor(workers=4, seed=jitter_seed)
        try:
            coreset, stats, _ = _run_pipeline(blobs, executor, batch_size=4, prefetch=prefetch)
        finally:
            executor.close()
        assert coreset.points.tobytes() == reference.points.tobytes()
        assert coreset.weights.tobytes() == reference.weights.tobytes()
        assert stats == reference_stats

    @pytest.mark.parametrize("jitter_seed", range(4))
    def test_sharded_build_is_completion_order_independent(self, blobs, jitter_seed):
        builder = ShardedCoresetBuilder(
            FastCoreset(k=5, seed=0),
            n_shards=6,
            coreset_size_per_shard=40,
            final_coreset_size=100,
            seed=9,
        )
        reference = builder.build(blobs, executor=SerialAsyncExecutor())
        executor = JitteredAsyncExecutor(workers=4, seed=jitter_seed)
        try:
            result = builder.build(blobs, executor=executor)
        finally:
            executor.close()
        assert result.coreset.points.tobytes() == reference.coreset.points.tobytes()
        assert result.coreset.weights.tobytes() == reference.coreset.weights.tobytes()
        assert result.message_sizes == reference.message_sizes
        assert result.communication == reference.communication
        assert result.metadata == reference.metadata
        assert result.backend == "jitter"
        # The final re-compression rode the executor; the host ran no reduce.
        for build in (result, reference):
            assert build.diagnostics.reduces_offloaded == 1.0
            assert build.diagnostics.host_reduces == 0.0


class TestShardedAsyncBackends:
    def _builds(self, blobs, executor):
        builder = ShardedCoresetBuilder(
            SensitivitySampling(k=5, seed=0),
            n_shards=4,
            coreset_size_per_shard=60,
            seed=5,
        )
        reference = builder.build(blobs, executor=SerialAsyncExecutor())
        try:
            result = builder.build(blobs, executor=executor)
        finally:
            executor.close()
        return reference, result

    @pytest.mark.parametrize(
        "factory",
        [
            pytest.param(lambda: SerialAsyncExecutor(), id="serial"),
            pytest.param(lambda: ThreadAsyncExecutor(workers=3), id="thread"),
            pytest.param(
                lambda: ProcessAsyncExecutor(workers=2),
                id="process",
                marks=pytest.mark.parallel,
            ),
        ],
    )
    def test_async_backends_match_serial_accounting(self, blobs, factory):
        reference, result = self._builds(blobs, factory())
        assert result.coreset.points.tobytes() == reference.coreset.points.tobytes()
        assert result.coreset.weights.tobytes() == reference.coreset.weights.tobytes()
        assert result.shard_sizes == reference.shard_sizes
        assert result.message_sizes == reference.message_sizes
        assert result.communication == reference.communication
        assert result.metadata == reference.metadata


class TestTreeFutureInputs:
    """``add_blocks`` accepts future-valued blocks and bounded pending folds."""

    def _blocks(self, blobs):
        return [
            (blobs[start : start + BLOCK_SIZE], None)
            for start in range(0, blobs.shape[0], BLOCK_SIZE)
        ]

    def _finalize(self, blobs, blocks, *, executor=None, pending_limit=None):
        tree = MergeReduceTree(
            sampler=SensitivitySampling(k=5, seed=0),
            coreset_size=CORESET_SIZE,
            seed=SEED,
            pending_limit=pending_limit,
        )
        for start in range(0, len(blocks), 4):
            tree.add_blocks(blocks[start : start + 4], executor=executor)
        return tree.finalize(), tree

    def test_future_blocks_match_plain_blocks(self, blobs):
        blocks = self._blocks(blobs)
        reference, _ = self._finalize(blobs, blocks)
        with ThreadPoolExecutor(max_workers=2) as reader:
            future_blocks = [reader.submit(lambda block=block: block) for block in blocks]
            result, _ = self._finalize(blobs, future_blocks)
        assert result.points.tobytes() == reference.points.tobytes()
        assert result.weights.tobytes() == reference.weights.tobytes()

    @pytest.mark.parametrize("pending_limit", (None, 1, 3, 16))
    def test_pending_limit_changes_nothing(self, blobs, pending_limit):
        blocks = self._blocks(blobs)
        reference, reference_tree = self._finalize(
            blobs, blocks, executor=SerialAsyncExecutor()
        )
        executor = ThreadAsyncExecutor(workers=2)
        try:
            result, tree = self._finalize(
                blobs, blocks, executor=executor, pending_limit=pending_limit
            )
        finally:
            executor.close()
        assert not tree._pending
        assert result.points.tobytes() == reference.points.tobytes()
        assert result.weights.tobytes() == reference.weights.tobytes()
        assert tree.reductions == reference_tree.reductions
        assert tree.spread_refreshes == reference_tree.spread_refreshes

    def test_pending_futures_respect_limit_between_batches(self, blobs):
        blocks = self._blocks(blobs)
        tree = MergeReduceTree(
            sampler=SensitivitySampling(k=5, seed=0),
            coreset_size=CORESET_SIZE,
            seed=SEED,
            pending_limit=2,
        )
        executor = SerialAsyncExecutor()
        tree.add_blocks(blocks[:6], executor=executor)
        assert len(tree._pending) == 2
        tree.flush()
        assert not tree._pending


class TestOverlappedReduceModes:
    """{resolved-per-call, kept-across-calls} x jitter x pending-limit.

    ``add_blocks`` given ``None`` or a backend name resolves an executor,
    flushes and closes it within the call; given an instance it keeps
    futures in flight across calls.  Every mode must agree byte-for-byte
    with the serial reference under adversarial completion orders and any
    overlap window; the diagnostics must reflect where the reduces ran.
    """

    def _blocks(self, blobs):
        return [
            (blobs[start : start + BLOCK_SIZE], None)
            for start in range(0, blobs.shape[0], BLOCK_SIZE)
        ]

    def _run_tree(self, blocks, *, executor=None, pending_limit=None):
        tree = MergeReduceTree(
            sampler=SensitivitySampling(k=5, seed=0),
            coreset_size=CORESET_SIZE,
            seed=SEED,
            pending_limit=pending_limit,
        )
        for start in range(0, len(blocks), 4):
            tree.add_blocks(blocks[start : start + 4], executor=executor)
            if not isinstance(executor, AsyncExecutor):
                # Resolved for this call only: nothing may stay in flight.
                assert not tree._pending
                assert all(
                    value.done() for value in tree.levels.values() if isinstance(value, Future)
                )
        return tree.finalize(), tree

    @pytest.mark.parametrize("pending_limit", (None, 1, 3))
    @pytest.mark.parametrize(
        "mode, jitter_seed",
        [(name, None) for name in (None, "serial", "thread")]
        + [("async-overlap", seed) for seed in range(2)],
    )
    def test_modes_agree_bytewise(self, blobs, mode, jitter_seed, pending_limit):
        blocks = self._blocks(blobs)
        reference, reference_tree = self._run_tree(blocks, executor=SerialAsyncExecutor())
        if jitter_seed is None:
            executor = mode
        else:
            executor = JitteredAsyncExecutor(workers=4, seed=jitter_seed)
        try:
            result, tree = self._run_tree(
                blocks, executor=executor, pending_limit=pending_limit
            )
        finally:
            if jitter_seed is not None:
                executor.close()
        context = (mode, jitter_seed, pending_limit)
        assert result.points.tobytes() == reference.points.tobytes(), context
        assert result.weights.tobytes() == reference.weights.tobytes(), context
        assert tree.reductions == reference_tree.reductions, context
        assert tree.spread_refreshes == reference_tree.spread_refreshes, context
        assert tree.reduces_offloaded == tree.reductions - tree.host_reduces, context
        assert tree.reduces_offloaded > 0, context
        assert tree.host_reduces <= 1, context  # only the final re-compression

    @pytest.mark.parametrize("backend", ("thread", "jittered"))
    def test_finished_tree_leaves_no_future_in_a_reference_cycle(self, blobs, backend):
        """Each reduce's input futures are freed by reference counting.

        A finished future keeps its done callbacks; a callback that reaches
        the future again holds every reduce input in a cycle until a gc
        pass, which is memory a long stream cannot spare.
        """
        blocks = list(DataStream.with_block_count(blobs, 16))

        def run():
            if backend == "thread":
                executor = ThreadAsyncExecutor(workers=2)
            else:
                executor = JitteredAsyncExecutor(workers=4, seed=0)
            try:
                tree = MergeReduceTree(
                    sampler=SensitivitySampling(k=5, seed=0), coreset_size=CORESET_SIZE, seed=SEED
                )
                tree.add_blocks(blocks, executor=executor)
                tree.finalize()
            finally:
                executor.close()

        assert _futures_left_in_cycles(run) == 0

    def test_finished_pipeline_leaves_no_future_in_a_reference_cycle(self, blobs):
        def run():
            executor = ThreadAsyncExecutor(workers=2)
            try:
                _run_pipeline(blobs, executor, batch_size=2, prefetch=2)
            finally:
                executor.close()

        assert _futures_left_in_cycles(run) == 0


class TestReduceFailurePath:
    """A reduce exception must leave no orphaned futures or pinned segments."""

    def _blocks(self, blobs, count):
        return [
            (blobs[start : start + BLOCK_SIZE], None)
            for start in range(0, count * BLOCK_SIZE, BLOCK_SIZE)
        ]

    def _tree(self):
        return MergeReduceTree(
            sampler=_ReduceBomb(),
            coreset_size=CORESET_SIZE,
            seed=SEED,
        )

    def test_thread_backend_settles_every_future(self, blobs):
        executor = ThreadAsyncExecutor(workers=2)
        tree = self._tree()
        try:
            tree.add_blocks(self._blocks(blobs, 4), executor=executor)
            tree.flush()  # must not raise: errors stay in the futures
            assert not tree._pending
            futures = [v for v in tree.levels.values() if isinstance(v, Future)]
            assert futures and all(f.done() for f in futures)
            with pytest.raises(RuntimeError, match="reduce bomb"):
                tree.finalize()
        finally:
            executor.close()

    @pytest.mark.parallel
    def test_process_backend_releases_segments(self, blobs):
        executor = ProcessAsyncExecutor(workers=2)
        tree = self._tree()
        try:
            tree.add_blocks(self._blocks(blobs, 4), executor=executor)
            tree.flush()
            with pytest.raises(RuntimeError, match="reduce bomb"):
                tree.finalize()
            # Every publication lease must be back on the free list: a
            # failed reduce may not pin its payload's shared-memory segment.
            assert len(executor._free) == len(executor._segments)
        finally:
            executor.close()
