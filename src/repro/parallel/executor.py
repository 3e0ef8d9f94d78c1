"""Pluggable execution backends for embarrassingly parallel coreset work.

The paper's Section 2.3 observation — coresets of disjoint shards compose by
union — makes compression *embarrassingly parallel*: every unit of work is a
pure function of ``(a slice of the dataset, a task description)``.  One
contract encodes exactly that and nothing more: :class:`AsyncExecutor`
(``submit`` returns a :class:`concurrent.futures.Future`; ``map_unordered``
yields results as they complete under a bounded in-flight window; the
blocking ``map`` gathers them in task order).  Backends:
:class:`SerialAsyncExecutor` (tasks run inline — the bit-for-bit
reference), :class:`ThreadAsyncExecutor`, and :class:`ProcessAsyncExecutor`
(a **long-lived** shared-memory process pool whose workers attach each
segment once and reuse it across calls — the backend that actually uses
multiple cores).  :func:`resolve_async_executor` turns ``None`` or a
backend name into an instance.

Determinism is the design center: executors never touch randomness.  Every
task arrives with its own spawn-keyed seed (see
:func:`repro.utils.rng.keyed_seed_sequence`) and the task functions are
pure, so every backend at every worker count, completion order and window
size produces bit-identical outputs.  The consumers (sharded builder,
merge-&-reduce tree) are responsible for *folding* results in a
completion-order-independent way; the equivalence suite
(``tests/test_async_equivalence.py``) pins the combination.

Segment lifetime (the process backend)
--------------------------------------
Publications *lease* segments from a free list owned by the executor: a
publication holds its segments until the last task referencing it
completes, then returns them to the free list for the next call to
overwrite — so a long stream of small ``map`` calls touches a constant
number of segments.  Workers attach **once per segment name**
(:data:`_WORKER_SEGMENT_CACHE`) and close every cached attachment through a
:class:`multiprocessing.util.Finalize` hook when the pool shuts down;
the parent unlinks every segment it ever created in
:meth:`ProcessAsyncExecutor.close`.  Pool workers share the parent's
resource-tracker process, so the attach-time registration lands in the same
cache the create-time registration populated (re-adding is a no-op) and the
parent's ``unlink`` retires each name exactly once — workers must do no
tracker bookkeeping of their own.  A worker that dies mid-task (``os._exit``,
an OOM kill) breaks the pool: its in-flight tasks fail with
:class:`~concurrent.futures.process.BrokenProcessPool`, and the next
submission retires the dead pool and starts a fresh one.
"""

from __future__ import annotations

import abc
import itertools
import multiprocessing
import threading
import time
from concurrent.futures import FIRST_COMPLETED
from concurrent.futures import Future
from concurrent.futures import ProcessPoolExecutor as _FuturesProcessPool
from concurrent.futures import ThreadPoolExecutor as _FuturesThreadPool
from concurrent.futures import wait as _wait_futures
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import observability as _obs
from repro.utils.validation import check_integer

#: Backend names accepted by :func:`resolve_async_executor` and the CLI.
BACKENDS = ("serial", "thread", "process")


@dataclass
class ArrayPayload:
    """The read-only dataset a batch of tasks slices into.

    Serial and thread backends hand the arrays to the task function as-is;
    the process backend copies them into shared memory (once per ``map`` /
    ``submit_many`` call) and reconstructs zero-copy views inside every
    worker.
    """

    points: np.ndarray
    weights: np.ndarray


#: Task functions are module-level callables ``fn(payload, task) -> result``
#: so the process backend can pickle the *reference* (never the data).
TaskFunction = Callable[[Optional[ArrayPayload], Any], Any]


# ---------------------------------------------------------------------------
# Process backend: shared-memory publication + pool workers.
# ---------------------------------------------------------------------------

#: Descriptor of one shared array: (segment name, shape, dtype string).
_ArrayDescriptor = Tuple[str, Tuple[int, ...], str]

#: The persistent-pool worker's attach-once cache, keyed by segment name.
#: The parent reuses (and rewrites) the same segments across calls, so the
#: cache stays bounded by the number of distinct segments the parent ever
#: created (a handful); it is closed by a ``multiprocessing.util.Finalize``
#: hook when the worker exits at pool shutdown.
_WORKER_SEGMENT_CACHE: Dict[str, shared_memory.SharedMemory] = {}


@dataclass
class _TracedResult:
    """A task result with a piggybacked worker-side trace summary.

    The wrapper exists only between the worker trampoline and the host-side
    unwrap (``_unwrap_traced``); consumers of the executor API never see
    it, so the values they fold are byte-exact with an untraced run.
    """

    result: Any
    summary: Optional[dict]


def _unwrap_traced(inner: Future) -> Future:
    """Future adapter: absorb the piggybacked summary, expose the bare result."""
    outer: Future = Future()

    def _copy(done: Future) -> None:
        error = done.exception()
        if error is not None:
            outer.set_exception(error)
            return
        value = done.result()
        if isinstance(value, _TracedResult):
            _obs.absorb_summary(value.summary)
            outer.set_result(value.result)
        else:
            outer.set_result(value)

    inner.add_done_callback(_copy)
    return outer


def _close_worker_segment_cache() -> None:
    """Persistent-pool worker exit hook: close every cached attachment."""
    for segment in _WORKER_SEGMENT_CACHE.values():
        try:
            segment.close()
        except BufferError:  # pragma: no cover - a view outlived its task
            pass
    _WORKER_SEGMENT_CACHE.clear()


def _init_persistent_worker() -> None:
    """Persistent-pool initializer: arrange segment close at worker exit.

    ``atexit`` handlers do not run in multiprocessing children (they exit
    through ``os._exit``); ``multiprocessing.util.Finalize`` hooks do — the
    child's ``_bootstrap`` runs them on the way out — so this is the
    mechanism that makes "explicit close on pool shutdown" real.
    """
    from multiprocessing import util

    util.Finalize(None, _close_worker_segment_cache, exitpriority=10)


def _worker_warmup(delay: float) -> None:
    """Persistent-pool warm-up task: nap briefly so the pool cannot satisfy
    a burst of warm-up submissions with one worker and is forced to spawn
    its full complement (see :meth:`ProcessAsyncExecutor.prepare`)."""
    time.sleep(delay)


def _run_persistent_task(
    fn: TaskFunction,
    task: Any,
    descriptors: Optional[Tuple[_ArrayDescriptor, _ArrayDescriptor]],
) -> Any:
    """Persistent-pool worker-side trampoline: attach-once, then apply.

    Descriptors travel with every task (a few hundred bytes); the segment
    attachment is cached by name, so re-publication into a reused segment
    costs the worker nothing.  Views are rebuilt per task because the same
    segment may carry a different shape on the next lease.
    """
    if descriptors is None:
        return fn(None, task)
    views = []
    for name, shape, dtype in descriptors:
        segment = _WORKER_SEGMENT_CACHE.get(name)
        if segment is None:
            segment = shared_memory.SharedMemory(name=name)
            _WORKER_SEGMENT_CACHE[name] = segment
        views.append(np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf))
    return fn(ArrayPayload(points=views[0], weights=views[1]), task)


def _run_traced_persistent_task(
    fn: TaskFunction,
    task: Any,
    descriptors: Optional[Tuple[_ArrayDescriptor, _ArrayDescriptor]],
) -> _TracedResult:
    """Persistent-pool trampoline that captures worker-side spans/counters.

    Selected host-side at submission time (only while tracing is active),
    so workers need no tracing state of their own: the capture installs a
    private recorder for the duration of the task and the summary rides
    back on the result.
    """
    with _obs.worker_capture() as capture:
        result = _run_persistent_task(fn, task, descriptors)
    return _TracedResult(result, capture.summary)


class _Publication:
    """One payload published into leased segments, refcounted by task.

    The segments MUST NOT return to the owner's free list (where the next
    ``submit_many`` would overwrite them) until every task that references
    them has completed; each future's done-callback decrements the count and
    the last one releases.  ``wait_released`` lets the blocking ``map``
    make the release deterministic — done-callbacks can otherwise
    fire marginally *after* ``Future.result`` returns.
    """

    def __init__(
        self,
        owner: "ProcessAsyncExecutor",
        segments: List[shared_memory.SharedMemory],
        descriptors: Tuple[_ArrayDescriptor, ...],
        references: int,
    ) -> None:
        self._owner = owner
        self._segments = segments
        self.descriptors = descriptors
        self._references = references
        self._drained = False
        self._lock = threading.Lock()
        self._released = threading.Event()

    def release_one(self, _future: Optional[Future] = None) -> None:
        self.release_many(1)

    def release_many(self, count: int) -> None:
        if count <= 0:
            return
        with self._lock:
            self._references -= count
            drained = self._references <= 0 and not self._drained
            if drained:
                self._drained = True
        if drained:
            self._owner._reclaim(self._segments)
            self._released.set()

    def wait_released(self, timeout: Optional[float] = None) -> bool:
        return self._released.wait(timeout)


# ---------------------------------------------------------------------------
# The executor contract: futures, unordered completion, bounded windows.
# ---------------------------------------------------------------------------


class AsyncExecutor(abc.ABC):
    """Run pure tasks asynchronously: ``submit`` returns a future.

    Overlap never touches determinism: every stochastic input (seed, spread
    hint) is fixed by the caller **before** submission, so completion order
    can only change wall-clock time, never bytes.  Consumers that fold results must
    do so in an order-independent way (collect by task index, fold in task
    order) — the pattern :class:`~repro.parallel.sharded.ShardedCoresetBuilder`
    and :class:`~repro.streaming.merge_reduce.MergeReduceTree` implement and
    the equivalence suite pins.

    Backends implement two hooks: :meth:`_publish` (make a payload visible
    to the workers, refcounted by the number of tasks that will slice it)
    and :meth:`_submit_task` (schedule one task, returning a
    :class:`concurrent.futures.Future`).  Everything else — ``submit``,
    ``submit_many``, ordered ``map``, windowed ``map_unordered`` — is
    derived here, so a test double only needs the two hooks.
    """

    name: str = "abstract"

    def __init__(self, *, workers: int = 1) -> None:
        self.workers = check_integer(workers, name="workers")

    # ------------------------------------------------------------- hooks
    @abc.abstractmethod
    def _publish(self, payload: Optional[ArrayPayload], references: int) -> Any:
        """Make ``payload`` visible to workers; returns a backend handle."""

    @abc.abstractmethod
    def _submit_task(self, fn: TaskFunction, task: Any, handle: Any) -> Future:
        """Schedule one task against a published payload handle."""

    def _finalize_publication(self, handle: Any) -> None:
        """Synchronisation point after all of a publication's results landed."""

    def _discard_unsubmitted(self, handle: Any, count: int) -> None:
        """Forfeit publication references for tasks that were never submitted.

        A windowed :meth:`map_unordered` can exit early — the consumer
        breaks, or a task raises — with part of its backlog unsubmitted;
        those tasks will never complete, so a refcounting backend must
        retire their references here or the publication stays pinned until
        :meth:`close`.
        """

    def prepare(self) -> None:
        """Eagerly acquire worker resources (a no-op for in-process backends).

        Callers that are about to start helper threads (the streaming
        pipeline's prefetch reader) call this first so that process
        backends fork their workers while the interpreter is still
        single-threaded — forking a multi-threaded process is the classic
        :mod:`multiprocessing` hazard.
        """

    # ---------------------------------------------------------- interface
    def submit(
        self,
        fn: TaskFunction,
        task: Any,
        *,
        payload: Optional[ArrayPayload] = None,
    ) -> Future:
        """Schedule ``fn(payload, task)``; the future resolves to its result."""
        return self.submit_many(fn, [task], payload=payload)[0]

    def _submit_batch(
        self,
        fn: TaskFunction,
        tasks: List[Any],
        payload: Optional[ArrayPayload],
    ) -> Tuple[Any, List[Future]]:
        """One publication, one future per task — the shared submission path."""
        handle = self._publish(payload, len(tasks))
        _obs.counter_add("executor.tasks_submitted", float(len(tasks)))
        return handle, [self._submit_task(fn, task, handle) for task in tasks]

    def submit_many(
        self,
        fn: TaskFunction,
        tasks: Sequence[Any],
        *,
        payload: Optional[ArrayPayload] = None,
    ) -> List[Future]:
        """Schedule a batch of tasks sharing one payload publication."""
        tasks = list(tasks)
        if not tasks:
            return []
        _, futures = self._submit_batch(fn, tasks, payload)
        return futures

    def map(
        self,
        fn: TaskFunction,
        tasks: Sequence[Any],
        *,
        payload: Optional[ArrayPayload] = None,
    ) -> List[Any]:
        """Blocking convenience wrapper: results in task order."""
        tasks = list(tasks)
        if not tasks:
            return []
        handle, futures = self._submit_batch(fn, tasks, payload)
        try:
            results = [future.result() for future in futures]
        finally:
            self._finalize_publication(handle)
        return results

    def map_unordered(
        self,
        fn: TaskFunction,
        tasks: Sequence[Any],
        *,
        payload: Optional[ArrayPayload] = None,
        window: Optional[int] = None,
    ) -> Iterator[Tuple[int, Any]]:
        """Yield ``(task_index, result)`` pairs as tasks complete.

        At most ``window`` tasks are in flight at a time (``None`` submits
        everything up front); the payload is published once for the whole
        call either way.  The window bounds memory — both the host-side
        result backlog and, for the process backend, how long a publication
        pins its leased segments — without affecting results: indices let
        the caller fold in task order regardless of completion order.
        """
        tasks = list(tasks)
        if not tasks:
            return
        limit = len(tasks) if window is None else max(1, check_integer(window, name="window"))
        handle = self._publish(payload, len(tasks))
        submitted = 0
        try:
            backlog = iter(enumerate(tasks))
            pending: Dict[Future, int] = {}
            for index, task in itertools.islice(backlog, limit):
                pending[self._submit_task(fn, task, handle)] = index
                submitted += 1
            _obs.counter_add("executor.tasks_submitted", float(submitted))
            _obs.gauge_set("executor.queue_depth", float(len(pending)))
            while pending:
                done, _ = _wait_futures(set(pending), return_when=FIRST_COMPLETED)
                for future in done:
                    index = pending.pop(future)
                    for next_index, next_task in itertools.islice(backlog, 1):
                        pending[self._submit_task(fn, next_task, handle)] = next_index
                        submitted += 1
                        _obs.counter_add("executor.tasks_submitted", 1.0)
                    _obs.gauge_set("executor.queue_depth", float(len(pending)))
                    yield index, future.result()
        finally:
            # On early exit (consumer break, task exception) the unsubmitted
            # backlog would otherwise pin the publication forever.
            self._discard_unsubmitted(handle, len(tasks) - submitted)
            self._finalize_publication(handle)

    def close(self) -> None:
        """Shut down pools and release every published resource."""

    def __enter__(self) -> "AsyncExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(backend={self.name!r}, workers={self.workers})"


def chain_future(source: Future, target: Future) -> None:
    """Propagate ``source``'s outcome (result or exception) into ``target``.

    The building block of dependency-chained submission: a consumer can hand
    out ``target`` immediately and let the backend resolve ``source``
    whenever it schedules the work.
    """

    def _copy(done: Future) -> None:
        error = done.exception()
        if error is not None:
            target.set_exception(error)
        else:
            target.set_result(done.result())

    source.add_done_callback(_copy)


def submit_when_ready(
    executor: "AsyncExecutor",
    fn: TaskFunction,
    dependencies: Sequence[Any],
    build: Callable[[List[Any]], Tuple[Any, Optional[ArrayPayload]]],
) -> Future:
    """Submit a task the moment its (possibly future-valued) inputs exist.

    This is the *reduce-task path*: a reduction consumes the outputs of
    earlier tasks — small, coreset-sized messages, never the original
    dataset — so it cannot be submitted up front with the leaf batch, but
    it also must not make the host block on its inputs.  ``dependencies``
    may mix plain values and :class:`~concurrent.futures.Future` objects;
    when the last future lands, ``build(resolved_values)`` is called to
    produce ``(task, payload)`` and the task is submitted to ``executor``.
    The returned future resolves to the task's result.

    Three properties make this safe:

    * **Submission order is irrelevant.**  The caller fixes every stochastic
      input (seed, hints) inside ``task`` *before* calling this function, so
      whether the submission happens now (inputs already resolved — it then
      runs synchronously on the calling thread for the serial backend) or
      later from a completion callback changes wall-clock only.
    * **Submission is thread-safe.**  The barrier callback may fire
      on a worker/completion thread; every backend's ``submit`` path takes
      its own locks (pool creation, segment leasing) and
      ``concurrent.futures`` pools accept cross-thread submissions.
    * **Failures propagate, never orphan.**  If an input future fails, the
      task is never submitted (no publication is created, so refcounting
      backends pin nothing) and the input's exception resolves the returned
      future; if ``build`` or the submission itself raises, likewise.

    A finished future keeps its done callbacks, and ``_dependency_done``
    reaches ``dependencies`` through ``_launch``: each input future would
    hold itself in a reference cycle that only a gc pass frees.  So
    ``_launch`` empties its private copy of the inputs once it ran.
    """
    result: Future = Future()
    dependencies = list(dependencies)

    def _launch() -> None:
        try:
            resolved = [
                value.result() if isinstance(value, Future) else value
                for value in dependencies
            ]
            task, payload = build(resolved)
            inner = executor.submit(fn, task, payload=payload)
        except BaseException as error:  # noqa: BLE001 - mirrored into the future
            result.set_exception(error)
            return
        finally:
            dependencies.clear()
        chain_future(inner, result)

    waiting = [value for value in dependencies if isinstance(value, Future)]
    if not waiting:
        _launch()
        return result

    barrier = threading.Lock()
    remaining = [len(waiting)]

    def _dependency_done(_: Future) -> None:
        with barrier:
            remaining[0] -= 1
            ready = remaining[0] == 0
        if ready:
            _launch()

    for value in waiting:
        value.add_done_callback(_dependency_done)
    return result


class SerialAsyncExecutor(AsyncExecutor):
    """The reference backend: tasks run inline at submission time.

    Futures are returned already resolved, so this backend exhibits the
    *degenerate* completion order (submission order) — the other end of the
    spectrum from the jittered test double — while sharing every code path
    of the consumers.
    """

    name = "serial"

    def __init__(self) -> None:
        super().__init__(workers=1)

    def _publish(self, payload: Optional[ArrayPayload], references: int) -> Any:
        return payload

    def _submit_task(self, fn: TaskFunction, task: Any, handle: Any) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(handle, task))
        except BaseException as error:  # noqa: BLE001 - mirrored into the future
            future.set_exception(error)
        return future


class ThreadAsyncExecutor(AsyncExecutor):
    """A persistent thread-pool backend (payload shared by reference).

    The pool outlives individual calls, so a stream of small batches pays
    thread start-up once.  Task functions receive the payload arrays
    directly (no copy).  Speedups come only from GIL-releasing NumPy
    sections and I/O overlap — reading the next memory-mapped batch while
    the current one compresses is exactly the streaming pipeline's use of
    this backend.
    """

    name = "thread"

    def __init__(self, *, workers: int) -> None:
        super().__init__(workers=workers)
        self._pool: Optional[_FuturesThreadPool] = None
        self._lock = threading.Lock()
        self._closed = False

    def _ensure_pool(self) -> _FuturesThreadPool:
        with self._lock:
            if self._closed:
                raise RuntimeError("executor is closed")
            if self._pool is None:
                self._pool = _FuturesThreadPool(
                    max_workers=self.workers, thread_name_prefix="repro-async"
                )
            return self._pool

    def _publish(self, payload: Optional[ArrayPayload], references: int) -> Any:
        return payload

    def _submit_task(self, fn: TaskFunction, task: Any, handle: Any) -> Future:
        return self._ensure_pool().submit(fn, handle, task)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass


class ProcessAsyncExecutor(AsyncExecutor):
    """A persistent shared-memory process pool with segment reuse.

    The pool is created lazily on first submission and lives until
    :meth:`close`; publications lease segments from a free list (creating
    one only when no pooled segment is large enough), overwrite them with
    the new payload bytes, and return them to the list once the last task
    referencing them completes.  Workers attach each segment name exactly
    once and reuse the mapping for every later lease of that segment, so a
    long run of small calls settles into a steady state with **zero**
    segment creation, attachment, or unlinking per call — the property the
    pool-reuse stress test pins via the resource-tracker-visible names in
    ``/dev/shm``.

    Parameters
    ----------
    workers:
        Number of worker processes.
    context:
        :mod:`multiprocessing` start-method name; defaults to ``"fork"``
        where available and ``"spawn"`` elsewhere.
    """

    name = "process"

    def __init__(self, *, workers: int, context: Optional[str] = None) -> None:
        super().__init__(workers=workers)
        if context is None:
            context = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        self.context = context
        self._pool: Optional[_FuturesProcessPool] = None
        self._lock = threading.Lock()
        self._closed = False
        self._free: List[shared_memory.SharedMemory] = []
        self._segments: Dict[str, shared_memory.SharedMemory] = {}

    # ------------------------------------------------------------ segments
    def _lease_locked(self, nbytes: int) -> shared_memory.SharedMemory:
        """Take the smallest adequate free segment, or create a new one."""
        best: Optional[int] = None
        for index, segment in enumerate(self._free):
            if segment.size >= max(1, nbytes) and (
                best is None or segment.size < self._free[best].size
            ):
                best = index
        if best is not None:
            return self._free.pop(best)
        segment = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
        self._segments[segment.name] = segment
        return segment

    def _reclaim(self, segments: List[shared_memory.SharedMemory]) -> None:
        """Return drained publication segments to the free list."""
        with self._lock:
            if self._closed:
                return
            self._free.extend(segments)

    def _write_array(
        self, array: np.ndarray
    ) -> Tuple[shared_memory.SharedMemory, _ArrayDescriptor]:
        array = np.ascontiguousarray(array)
        with self._lock:
            if self._closed:
                raise RuntimeError("executor is closed")
            segment = self._lease_locked(array.nbytes)
        if array.nbytes:
            view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
            view[:] = array
            del view
        return segment, (segment.name, array.shape, array.dtype.str)

    # ---------------------------------------------------------------- pool
    def _ensure_pool(self) -> _FuturesProcessPool:
        with self._lock:
            if self._closed:
                raise RuntimeError("executor is closed")
            if self._pool is None:
                # Start the parent's resource tracker *before* the pool can
                # fork: a worker forked while no tracker exists (possible
                # when the first submission precedes the first publication,
                # e.g. the prepare() warm-up) would lazily start its own
                # private tracker on first attach-register — one that never
                # sees the parent's unregister and falsely reports leaked
                # segments at exit.
                try:
                    from multiprocessing import resource_tracker

                    resource_tracker.ensure_running()
                except (ImportError, AttributeError):  # pragma: no cover
                    pass
                self._pool = _FuturesProcessPool(
                    max_workers=self.workers,
                    mp_context=multiprocessing.get_context(self.context),
                    initializer=_init_persistent_worker,
                )
            return self._pool

    def _pool_submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        """Submit to the pool, replacing it once if a dead worker broke it.

        A worker that dies mid-task (``os._exit``, an OOM kill) leaves a
        :class:`concurrent.futures.ProcessPoolExecutor` broken for good: the
        tasks in flight fail with :class:`BrokenProcessPool` — so the call
        that lost the worker still raises — and every later ``submit``
        raises it too.  Retiring the dead pool and resubmitting once on a
        fresh one lets the executor serve the next call.  Segment leases
        need no repair: the failed futures' done-callbacks returned them.
        """
        pool = self._ensure_pool()
        try:
            return pool.submit(fn, *args)
        except BrokenProcessPool:
            with self._lock:
                if self._pool is pool:
                    self._pool = None
            # wait=False: the pool's manager thread already reaped its
            # workers, and this may run on that very thread (a completion
            # callback submitting a dependent reduce).
            pool.shutdown(wait=False)
            _obs.counter_add("executor.pool_restarts", 1.0)
            return self._ensure_pool().submit(fn, *args)

    # --------------------------------------------------------------- hooks
    def _publish(self, payload: Optional[ArrayPayload], references: int) -> Optional[_Publication]:
        if payload is None:
            return None
        with _obs.span("executor.publish", backend=self.name) as publish_span:
            published = [self._write_array(payload.points), self._write_array(payload.weights)]
            publish_span.annotate(
                nbytes=int(payload.points.nbytes) + int(payload.weights.nbytes),
                references=references,
            )
        if _obs.tracing_active():
            with self._lock:
                _obs.gauge_set("executor.segments_live", float(len(self._segments)))
                _obs.gauge_set("executor.segments_free", float(len(self._free)))
        return _Publication(
            self,
            [segment for segment, _ in published],
            tuple(descriptor for _, descriptor in published),
            references,
        )

    def _submit_task(self, fn: TaskFunction, task: Any, handle: Optional[_Publication]) -> Future:
        descriptors = None if handle is None else handle.descriptors
        # Tracing is decided host-side at submission time: workers carry no
        # tracing state, so an untraced run ships the plain trampoline and
        # pays nothing.
        if _obs.tracing_active():
            inner = self._pool_submit(_run_traced_persistent_task, fn, task, descriptors)
            future = _unwrap_traced(inner)
        else:
            inner = self._pool_submit(_run_persistent_task, fn, task, descriptors)
            future = inner
        if handle is not None:
            inner.add_done_callback(handle.release_one)
        return future

    def _finalize_publication(self, handle: Optional[_Publication]) -> None:
        # Done-callbacks may fire marginally after Future.result returns;
        # waiting here makes segment reuse deterministic for the next call.
        if handle is not None:
            handle.wait_released(timeout=60.0)

    def _discard_unsubmitted(self, handle: Optional[_Publication], count: int) -> None:
        if handle is not None:
            handle.release_many(count)

    def prepare(self) -> None:
        """Best-effort pre-start of the full worker complement.

        :class:`concurrent.futures.ProcessPoolExecutor` spawns workers
        lazily, one per submission that finds no idle worker — so under the
        default ``fork`` context a later submission can fork *after* the
        caller has started helper threads.  Submitting ``workers`` brief
        warm-up naps here forces the spawns to happen now, while the
        process is still single-threaded.
        """
        for future in [self._pool_submit(_worker_warmup, 0.02) for _ in range(self.workers)]:
            future.result()

    def close(self) -> None:
        """Shut the pool down, close worker attachments, unlink every segment."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
            segments = list(self._segments.values())
            self._segments.clear()
            self._free.clear()
        if pool is not None:
            # wait=True drains outstanding tasks, and worker exit runs the
            # Finalize hook that closes the worker-side attachment cache.
            pool.shutdown(wait=True)
        for segment in segments:
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already retired
                pass

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass


def resolve_async_executor(
    executor: Union[None, str, AsyncExecutor],
    *,
    workers: int = 1,
) -> AsyncExecutor:
    """Normalise an executor argument to an :class:`AsyncExecutor`.

    ``None`` and ``"serial"`` give the inline reference backend; a backend
    name builds the persistent pool variant with ``workers`` workers — the
    caller owns that executor and should :meth:`~AsyncExecutor.close` it;
    an :class:`AsyncExecutor` instance passes through unchanged.
    """
    if executor is None or executor == "serial":
        return SerialAsyncExecutor()
    if isinstance(executor, AsyncExecutor):
        return executor
    if executor == "thread":
        return ThreadAsyncExecutor(workers=workers)
    if executor == "process":
        return ProcessAsyncExecutor(workers=workers)
    raise ValueError(
        f"unknown executor backend {executor!r}; expected one of {', '.join(BACKENDS)}"
    )
