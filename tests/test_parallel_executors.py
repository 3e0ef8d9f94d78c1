"""Unit tests for the executor backends and the sharding primitives.

The task functions live at module level so the process backend can pickle
them by reference — the same requirement the library's own task functions
(:func:`repro.parallel.sharding.compress_shard`) satisfy.
"""

import gc
import os
import threading
import weakref
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro import observability as obs
from repro.core import UniformSampling
from repro.core.base import CoresetConstruction
from repro.core.coreset import Coreset
from repro.parallel import (
    BACKENDS,
    ArrayPayload,
    AsyncExecutor,
    ProcessAsyncExecutor,
    SerialAsyncExecutor,
    ShardedCoresetBuilder,
    ThreadAsyncExecutor,
    resolve_async_executor,
    shard_bounds,
    submit_when_ready,
)
from repro.streaming import DataStream, MergeReduceTree, StreamingCoresetPipeline


def _slice_total(payload, task):
    start, stop, scale = task
    return float(payload.points[start:stop].sum() + scale * payload.weights[start:stop].sum())


def _double(payload, task):
    assert payload is None
    return task * 2


def _worker_pid(payload, task):
    return os.getpid()


def _total(payload, task):
    assert payload is None
    return float(sum(np.sum(value) for value in task))


def _slice_total_or_die(payload, task):
    """``_slice_total``, except that a ``None`` task kills its pool worker."""
    if task is None:
        os._exit(3)
    return _slice_total(payload, task)


class _DyingSampler(CoresetConstruction):
    """Kills the pool worker running it; module-level so it pickles."""

    name = "dying"

    def _sample(self, points, weights, m, seed, spread=None, cost_bound=None):
        os._exit(3)


class _ReduceKiller(CoresetConstruction):
    """Kills the pool worker on a reduce input; module-level so it pickles.

    A leaf keeps its block's first ``m`` rows, rescaled to the block's unit
    weights; a reduce input carries those rescaled weights, so a non-unit
    weight identifies a reduce (as ``_ReduceBomb`` in
    ``test_async_equivalence.py`` does).
    """

    name = "reduce_killer"

    def _sample(self, points, weights, m, seed, spread=None, cost_bound=None):
        if np.any(weights != 1.0):
            os._exit(3)
        scale = weights.sum() / weights[:m].sum()
        return Coreset(points=points[:m], weights=weights[:m] * scale)


def _error_within(call, timeout=60.0):
    """Run ``call`` on a daemon thread and return what it raised (or None).

    Fails the test if the call has not finished after ``timeout`` seconds,
    so a pool that hangs instead of failing cannot wedge the suite.
    """
    outcome = {}

    def _run():
        try:
            call()
        except Exception as error:  # handed to the test
            outcome["error"] = error

    thread = threading.Thread(target=_run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"call still running after {timeout}s"
    return outcome.get("error")


@pytest.fixture
def created_segments(monkeypatch):
    """The names of the shared-memory segments this process creates in a test.

    The leak checks look only at these, so a segment that another process
    on the host creates meanwhile cannot fail them.
    """
    names = []
    original_init = shared_memory.SharedMemory.__init__

    def _recording_init(self, name=None, create=False, size=0, **options):
        original_init(self, name, create, size, **options)
        if create:
            names.append(self.name)

    monkeypatch.setattr(shared_memory.SharedMemory, "__init__", _recording_init)
    return names


def _live_segments(names):
    """The subset of ``names`` that still exists as a shared-memory segment.

    ``multiprocessing.shared_memory`` gives every segment a ``psm_``-prefixed
    name, which on Linux is exactly the file that appears in ``/dev/shm``.
    """
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():
        pytest.skip("platform exposes no /dev/shm to inspect")
    return {name for name in names if (shm_dir / name).exists()}


def _assert_all_unlinked(names):
    assert names, "the test published no payload, so it checks no segment"
    assert _live_segments(names) == set()


@pytest.fixture(scope="module")
def payload():
    rng = np.random.default_rng(0)
    return ArrayPayload(
        points=rng.normal(size=(100, 4)),
        weights=rng.uniform(0.5, 1.5, size=100),
    )


@pytest.fixture(scope="module")
def tasks():
    return [(0, 30, 1.0), (30, 60, 2.0), (60, 100, 0.5), (10, 90, 0.0)]


class TestShardBounds:
    def test_bounds_cover_range_in_order(self):
        bounds = shard_bounds(103, 4)
        assert bounds[0][0] == 0 and bounds[-1][1] == 103
        assert all(a_stop == b_start for (_, a_stop), (b_start, _) in zip(bounds, bounds[1:]))

    def test_sizes_differ_by_at_most_one(self):
        sizes = [stop - start for start, stop in shard_bounds(103, 4)]
        assert max(sizes) - min(sizes) <= 1
        assert max(sizes) == int(np.ceil(103 / 4))

    def test_fewer_points_than_shards_drops_empty_tail(self):
        bounds = shard_bounds(3, 10)
        assert len(bounds) == 3
        assert all(stop - start == 1 for start, stop in bounds)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            shard_bounds(0, 4)
        with pytest.raises(ValueError):
            shard_bounds(10, 0)


class TestSerialAndThread:
    def test_serial_matches_direct_evaluation(self, payload, tasks):
        expected = [_slice_total(payload, task) for task in tasks]
        assert SerialAsyncExecutor().map(_slice_total, tasks, payload=payload) == expected

    def test_thread_matches_serial_and_preserves_order(self, payload, tasks):
        expected = SerialAsyncExecutor().map(_slice_total, tasks, payload=payload)
        for workers in (1, 2, 3, 8):
            with ThreadAsyncExecutor(workers=workers) as executor:
                assert executor.map(_slice_total, tasks, payload=payload) == expected

    def test_thread_without_payload(self):
        with ThreadAsyncExecutor(workers=2) as executor:
            assert executor.map(_double, [1, 2, 3]) == [2, 4, 6]

    def test_empty_task_list(self, payload):
        assert SerialAsyncExecutor().map(_slice_total, [], payload=payload) == []
        with ThreadAsyncExecutor(workers=2) as executor:
            assert executor.map(_slice_total, [], payload=payload) == []

    def test_worker_count_validation(self):
        with pytest.raises(ValueError):
            ThreadAsyncExecutor(workers=0)
        with pytest.raises(TypeError):
            ThreadAsyncExecutor(workers=2.5)


@pytest.mark.parallel
class TestProcessBackend:
    def test_matches_serial_via_shared_memory(self, payload, tasks):
        expected = SerialAsyncExecutor().map(_slice_total, tasks, payload=payload)
        for workers in (1, 2, 4):
            with ProcessAsyncExecutor(workers=workers) as executor:
                assert executor.map(_slice_total, tasks, payload=payload) == expected

    def test_without_payload(self):
        with ProcessAsyncExecutor(workers=2) as executor:
            assert executor.map(_double, [1, 2, 3, 4]) == [2, 4, 6, 8]

    def test_empty_task_list(self, payload):
        with ProcessAsyncExecutor(workers=2) as executor:
            assert executor.map(_slice_total, [], payload=payload) == []

    def test_closed_executor_rejects_map(self, payload, tasks):
        executor = ProcessAsyncExecutor(workers=2)
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.map(_slice_total, tasks, payload=payload)

    def test_no_shared_memory_segments_leak_after_close(self, payload, tasks, created_segments):
        with ProcessAsyncExecutor(workers=2) as executor:
            executor.map(_slice_total, tasks, payload=payload)
        _assert_all_unlinked(created_segments)


@pytest.mark.parallel
class TestWorkerDeath:
    """A worker killed mid-task: a typed error, no leaked segments, a new pool.

    ``os._exit`` skips every cleanup hook in the worker, which is what an
    OOM kill looks like from the host.  The call that lost the worker must
    raise :class:`BrokenProcessPool` promptly; the next call on the same
    executor must run on a fresh pool and return correct results.
    """

    def test_worker_death_mid_map(self, payload, tasks, created_segments):
        expected = SerialAsyncExecutor().map(_slice_total, tasks, payload=payload)
        executor = ProcessAsyncExecutor(workers=2)
        try:
            doomed = [tasks[0], None, *tasks[1:]]
            # The first map submits its tasks one at a time: when the dead
            # worker breaks the pool before the last submit, that map
            # restarts it, otherwise the next one does.  One restart across
            # the two calls either way.
            with obs.tracing() as recorder:
                error = _error_within(
                    lambda: executor.map(_slice_total_or_die, doomed, payload=payload)
                )
                assert isinstance(error, BrokenProcessPool)
                assert executor.map(_slice_total, tasks, payload=payload) == expected
            assert recorder.counters()["executor.pool_restarts"] == 1.0
        finally:
            executor.close()
        _assert_all_unlinked(created_segments)

    def test_worker_death_mid_sharded_build(self, blobs, payload, tasks, created_segments):
        def builder(sampler):
            return ShardedCoresetBuilder(
                sampler, n_shards=4, coreset_size_per_shard=50, seed=3
            )

        reference = builder(UniformSampling(seed=0)).build(blobs)
        expected = SerialAsyncExecutor().map(_slice_total, tasks, payload=payload)
        executor = ProcessAsyncExecutor(workers=2)
        try:
            error = _error_within(
                lambda: builder(_DyingSampler()).build(blobs, executor=executor)
            )
            assert isinstance(error, BrokenProcessPool)
            assert executor.map(_slice_total, tasks, payload=payload) == expected
            rebuilt = builder(UniformSampling(seed=0)).build(blobs, executor=executor)
            assert rebuilt.coreset.points.tobytes() == reference.coreset.points.tobytes()
            assert rebuilt.coreset.weights.tobytes() == reference.coreset.weights.tobytes()
        finally:
            executor.close()
        _assert_all_unlinked(created_segments)

    @pytest.mark.parametrize("feed", ["tree", "pipeline"])
    def test_worker_death_mid_stream_reduce(self, blobs, feed, created_segments):
        def stream(sampler, executor):
            blocks = DataStream(points=blobs, block_size=120)
            if feed == "pipeline":
                return StreamingCoresetPipeline(
                    sampler=sampler,
                    coreset_size=60,
                    seed=3,
                    executor=executor,
                    prefetch_batches=2,
                ).run(blocks)
            tree = MergeReduceTree(sampler=sampler, coreset_size=60, seed=3)
            if executor is None:
                for block, weights in blocks:
                    tree.add_block(block, weights)
            else:
                tree.add_blocks(blocks, executor=executor)
            return tree.finalize()

        reference = stream(UniformSampling(seed=0), None)
        executor = ProcessAsyncExecutor(workers=2)
        try:
            error = _error_within(lambda: stream(_ReduceKiller(), executor))
            assert isinstance(error, BrokenProcessPool)
            rerun = stream(UniformSampling(seed=0), executor)
            assert rerun.points.tobytes() == reference.points.tobytes()
            assert rerun.weights.tobytes() == reference.weights.tobytes()
        finally:
            executor.close()
        _assert_all_unlinked(created_segments)


@pytest.mark.parallel
class TestPersistentPoolReuse:
    """The pool-reuse contract: one pool, a constant set of segments."""

    def test_many_small_maps_do_not_grow_segments_or_leak(self, created_segments):
        rng = np.random.default_rng(3)
        payload = ArrayPayload(
            points=rng.normal(size=(64, 3)), weights=rng.uniform(0.5, 1.5, size=64)
        )
        tasks = [(0, 32, 1.0), (32, 64, 0.5)]
        expected = SerialAsyncExecutor().map(_slice_total, tasks, payload=payload)
        with ProcessAsyncExecutor(workers=2) as executor:
            assert executor.map(_slice_total, tasks, payload=payload) == expected
            # After the first call the segment pool is warm: two segments
            # (points + weights) that every later call leases and rewrites.
            warm = set(created_segments)
            assert len(warm) <= 2
            assert _live_segments(warm) == warm
            for _ in range(199):
                assert executor.map(_slice_total, tasks, payload=payload) == expected
            assert set(created_segments) == warm
            assert _live_segments(warm) == warm
        # close() unlinks the pooled segments.
        _assert_all_unlinked(created_segments)

    def test_map_calls_reuse_the_same_worker_processes(self):
        with ProcessAsyncExecutor(workers=2) as executor:
            pids = set()
            for _ in range(10):
                pids.update(executor.map(_worker_pid, [0, 1]))
            assert len(pids) <= 2

    def test_async_executor_segments_stable_across_calls(self, created_segments):
        rng = np.random.default_rng(4)
        payload = ArrayPayload(
            points=rng.normal(size=(50, 4)), weights=np.ones(50)
        )
        tasks = [(0, 25, 2.0), (25, 50, 1.0)]
        expected = SerialAsyncExecutor().map(_slice_total, tasks, payload=payload)
        with ProcessAsyncExecutor(workers=2) as executor:
            assert executor.map(_slice_total, tasks, payload=payload) == expected
            warm = set(created_segments)
            assert _live_segments(warm) == warm
            # submit_many is the path the stream trees take: every call
            # leases the segments the previous call's tasks returned.
            for _ in range(50):
                futures = executor.submit_many(_slice_total, tasks, payload=payload)
                assert [future.result() for future in futures] == expected
            assert set(created_segments) == warm
            assert _live_segments(warm) == warm
        _assert_all_unlinked(created_segments)


class TestAsyncExecutors:
    def test_serial_async_futures_resolve_inline(self, payload, tasks):
        executor = SerialAsyncExecutor()
        future = executor.submit(_slice_total, tasks[0], payload=payload)
        assert future.done()
        assert future.result() == _slice_total(payload, tasks[0])

    def test_submit_many_and_map_match_serial(self, payload, tasks):
        expected = SerialAsyncExecutor().map(_slice_total, tasks, payload=payload)
        with ThreadAsyncExecutor(workers=3) as executor:
            futures = executor.submit_many(_slice_total, tasks, payload=payload)
            assert [future.result() for future in futures] == expected
            assert executor.map(_slice_total, tasks, payload=payload) == expected

    def test_task_errors_propagate_through_futures(self):
        def boom(payload, task):
            raise RuntimeError("task failed")

        with pytest.raises(RuntimeError, match="task failed"):
            SerialAsyncExecutor().submit(boom, 1).result()

    def test_closed_thread_executor_rejects_submission(self):
        executor = ThreadAsyncExecutor(workers=2)
        executor.map(_double, [1])
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.submit(_double, 2)

    def test_empty_task_list(self, payload):
        assert SerialAsyncExecutor().map(_slice_total, [], payload=payload) == []


class TestSubmitWhenReady:
    """The reduce-task path: submit once every future-valued input landed."""

    @staticmethod
    def _recording_build(built):
        def build(values):
            built.append(values)
            return values, None

        return build

    def test_plain_inputs_submit_at_once(self):
        built = []
        result = submit_when_ready(
            SerialAsyncExecutor(), _total, [1.0, 2.0], self._recording_build(built)
        )
        assert result.done()
        assert result.result() == 3.0
        assert built == [[1.0, 2.0]]

    def test_waits_for_every_future_input_and_keeps_their_order(self):
        first, second = Future(), Future()
        built = []
        result = submit_when_ready(
            SerialAsyncExecutor(), _total, [first, 5.0, second], self._recording_build(built)
        )
        second.set_result(2.0)
        assert not result.done()
        assert built == []
        first.set_result(1.0)
        assert result.result(timeout=5) == 8.0
        assert built == [[1.0, 5.0, 2.0]]

    def test_failed_input_resolves_the_result_and_skips_the_task(self):
        failing, healthy = Future(), Future()
        built = []
        result = submit_when_ready(
            SerialAsyncExecutor(), _total, [failing, healthy], self._recording_build(built)
        )
        healthy.set_result(1.0)
        failing.set_exception(RuntimeError("leaf failed"))
        with pytest.raises(RuntimeError, match="leaf failed"):
            result.result(timeout=5)
        assert built == []

    def test_build_error_resolves_the_result(self):
        def build(values):
            raise ValueError("bad task")

        result = submit_when_ready(SerialAsyncExecutor(), _total, [1.0], build)
        with pytest.raises(ValueError, match="bad task"):
            result.result(timeout=5)

    def test_launched_inputs_are_freed_without_a_gc_pass(self):
        # A finished future keeps its done callbacks; if they still reach
        # the future, every reduce input lives in a cycle until gc runs.
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            dependency = Future()
            value = np.ones(8)
            alive = weakref.ref(value)
            result = submit_when_ready(
                SerialAsyncExecutor(), _total, [dependency], lambda values: (values, None)
            )
            dependency.set_result(value)
            del value
            assert result.result(timeout=5) == 8.0
            del dependency
            assert alive() is None
        finally:
            if enabled:
                gc.enable()


class TestResolveAsyncExecutor:
    def test_none_and_serial_give_serial(self):
        assert isinstance(resolve_async_executor(None), SerialAsyncExecutor)
        assert isinstance(resolve_async_executor("serial"), SerialAsyncExecutor)

    def test_names_build_backends_with_workers(self):
        thread = resolve_async_executor("thread", workers=3)
        assert isinstance(thread, ThreadAsyncExecutor) and thread.workers == 3
        process = resolve_async_executor("process", workers=2)
        assert isinstance(process, ProcessAsyncExecutor) and process.workers == 2

    def test_instance_passes_through(self):
        executor = ThreadAsyncExecutor(workers=5)
        assert resolve_async_executor(executor, workers=1) is executor

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            resolve_async_executor("gpu")

    def test_backend_names_are_resolvable(self):
        for name in BACKENDS:
            assert isinstance(resolve_async_executor(name, workers=2), AsyncExecutor)

