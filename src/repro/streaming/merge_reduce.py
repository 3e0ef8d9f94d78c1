"""Merge-&-reduce: turning any sampler into a streaming coreset algorithm.

The classical framework of Bentley and Saxe [11], first applied to
clustering coresets by Har-Peled and Mazumdar [40], maintains at most one
compression per level of a binary tree over the blocks seen so far:

* every arriving block is compressed to ``m`` points (a *leaf* coreset);
* whenever two compressions of the same level exist, their union (which is a
  coreset of the union of their inputs, by the composition property) is
  re-compressed to ``m`` points and promoted one level up;
* at the end of the stream the surviving per-level compressions — the
  pattern the paper's footnote 10 illustrates as ``[[1], [2], [3,4],
  [5,6,7,8]]`` for eight blocks — are concatenated and compressed one final
  time.

Errors compound along the ``O(log b)`` levels, which is why the theory asks
for larger samples in the stream; Section 5.4 of the paper observes that in
practice the accelerated samplers do *at least as well* under composition,
and the harness built on this module reproduces that comparison.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro import observability as _obs
from repro.core.base import CoresetConstruction
from repro.core.coreset import Coreset, merge_coresets
from repro.observability import ExecutionDiagnostics
from repro.core.spread_reduction import crude_cost_upper_bound
from repro.geometry.quadtree import compute_spread
from repro.parallel.executor import (
    ArrayPayload,
    AsyncExecutor,
    resolve_async_executor,
    submit_when_ready,
)
from repro.parallel.sharding import (
    KEY_STREAM_LEAF,
    KEY_STREAM_REDUCE,
    ShardTask,
    compress_shard,
    merge_payload,
)
from repro.streaming.stream import Block, DataStream
from repro.utils.rng import (
    SeedLike,
    as_generator,
    as_seed_sequence,
    keyed_seed_sequence,
    random_seed_from,
)
from repro.utils.validation import check_integer


@dataclass
class _Bucket:
    """One leaf record or stamped compression of a stream tree.

    ``value`` is the compression (a coreset or an in-flight future), or
    ``None`` while a leaf still awaits submission; the hints are the ones
    fixed for it during the host walk.
    """

    value: Union[None, Coreset, Future]
    start: int  #: first block index covered (inclusive)
    stop: int  #: past-the-end block index
    oldest_time: float
    newest_time: float
    spread: Optional[float]
    cost_bound: Optional[float]

    @classmethod
    def leaf(
        cls, index: int, stamp: float, spread: Optional[float], cost_bound: Optional[float]
    ) -> "_Bucket":
        """The record of block ``index``, stamped ``stamp``, not yet compressed."""
        return cls(None, index, index + 1, stamp, stamp, spread, cost_bound)

    @property
    def span(self) -> int:
        return self.stop - self.start


@dataclass
class MergeReduceTree:
    """Online merge-&-reduce state.

    Both leaf and reduce compressions run on the executor.  The carry chain
    is future-aware: level slots may hold in-flight futures, the host only
    walks carry logic, and each reduce (``merge + sampler.sample``) is
    submitted the moment both of its inputs exist — from a completion
    callback when an input is still in flight.  Reduce seeds are a pure
    function of the reduce *index* (:meth:`_reduce_seed`), which the host
    assigns during the walk in arrival order, never of scheduling, so every
    executor produces the same bytes as the serial one.

    Parameters
    ----------
    sampler:
        Any :class:`~repro.core.base.CoresetConstruction`; it is used both
        for the leaf compressions and for every reduction step.
    coreset_size:
        Target size ``m`` of every compression held by the tree.
    seed:
        Randomness.  Every compression receives a spawn-keyed child of it:
        leaf ``i`` the child keyed by the block index, reduce ``j`` the child
        keyed by the reduction index.  The final coreset is therefore a pure
        function of the seed and the block sequence, the same whether blocks
        arrive one at a time through :meth:`add_block` or in batches of any
        size on any executor backend and worker count.
    share_stream_state:
        Share per-stream work across compressions (default).  The tree keeps
        a running bounding box of everything it has seen and a cached spread
        estimate; every compression receives the cached value through the
        sampler's ``spread`` hook instead of re-estimating it from scratch
        (the dominant fixed cost of a :class:`~repro.core.fast_coreset.FastCoreset`
        fit on a small block).  Because only the *logarithm* of the spread is
        consumed downstream, the cache is refreshed only when the bounding
        box diagonal grows past ``spread_refresh_factor`` times its size at
        the previous estimate.  Disabling the flag restores the exact
        per-block-estimate behaviour (used as the baseline by the perf
        harness and the distortion-parity tests).
    cache_cost_bound:
        Also cache the Algorithm-2 crude cost upper bound behind the *same*
        refresh signal (default).  For samplers that declare
        ``consumes_cost_bound`` (a :class:`~repro.core.fast_coreset.FastCoreset`
        with spread reduction enabled), every compression then skips its
        per-call dyadic binary search; the bound is recomputed together
        with the spread whenever the bounding box grows or the staleness
        interval expires — a refresh resets both caches at once.  The
        bound, like the spread, only steers grid granularities whose
        guarantees tolerate polynomial slack, so a bound measured on an
        earlier block of the same stream remains valid between refreshes.
        Ignored when ``share_stream_state`` is disabled.
    spread_refresh_factor:
        Bounding-box growth ratio that triggers a fresh estimate (its
        inverse, a shrink, does too once a windowed tree's blocks expire).
    spread_refresh_interval:
        Hard cap on staleness: a fresh estimate is taken at least every this
        many blocks even when the bounding box is stable.  The box
        cannot see the spread grow through *shrinking minimum distances*
        (e.g. near-duplicate points arriving late in the stream inside the
        established box), so the periodic resync bounds how long such a
        stream can run on an underestimate; at the default interval the
        amortised cost of the (blocked) estimate stays negligible.
    pending_limit:
        Bound on the number of unsettled leaf futures the tree may hold
        when :meth:`add_blocks` is given an executor instance (the overlap
        window).  ``None`` settles everything a batch submitted before
        :meth:`add_blocks` returns — no overlap across batches.  The
        limit changes memory and wall-clock only: the carry chain is walked
        in arrival order at submission, so the coreset is independent of it.

    Attributes
    ----------
    levels:
        ``levels[l]`` holds the at-most-one compression currently stored at
        level ``l`` — a :class:`~repro.core.coreset.Coreset`, or an
        in-flight :class:`~concurrent.futures.Future` resolving to one.
    reductions:
        Number of reduce operations performed so far (diagnostics).
    spread_refreshes:
        Number of spread estimates actually computed (diagnostics; at most
        one per block, exactly one for a stationary stream).
    reduces_offloaded / host_reduces / host_reduce_seconds:
        Where reduce compressions ran: submitted to the executor vs run on
        the host thread (only the final re-compression), and the
        host-thread seconds they cost.  Kept apart from the mode-invariant
        statistics.
    pending_high_water:
        Highest number of in-flight leaf futures ever queued (diagnostics;
        bounded by ``pending_limit`` plus one batch).
    """

    sampler: CoresetConstruction
    coreset_size: int
    seed: SeedLike = None
    share_stream_state: bool = True
    cache_cost_bound: bool = True
    spread_refresh_factor: float = 2.0
    spread_refresh_interval: int = 32
    pending_limit: Optional[int] = None
    levels: Dict[int, Union[Coreset, Future]] = field(default_factory=dict, init=False)
    reductions: int = field(default=0, init=False)
    blocks_seen: int = field(default=0, init=False)
    spread_refreshes: int = field(default=0, init=False)
    cost_bound_refreshes: int = field(default=0, init=False)
    reduces_offloaded: int = field(default=0, init=False)
    host_reduces: int = field(default=0, init=False)
    host_reduce_seconds: float = field(default=0.0, init=False)
    pending_high_water: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.coreset_size = check_integer(self.coreset_size, name="coreset_size")
        #: Leaf records submitted to an async executor but not yet settled,
        #: in arrival order.  Their carry walk already happened; settling
        #: them is the backpressure that bounds in-flight leaves.
        self._pending: Deque[_Bucket] = deque()
        # The hint caches draw from their own generator, seeded before the
        # spawn root: a Generator seed gives its first draw to the caches and
        # its second to the root.
        self._spread_generator = as_generator(random_seed_from(as_generator(self.seed)))
        self._spawn_root = as_seed_sequence(self.seed)
        self._bounds_low: Optional[np.ndarray] = None
        self._bounds_high: Optional[np.ndarray] = None
        self._cached_spread: Optional[float] = None
        self._cached_cost_bound: Optional[float] = None
        self._cached_diameter: float = 0.0
        self._blocks_since_refresh: int = 0

    # ------------------------------------------------------------------
    def _observe(self, points: np.ndarray) -> None:
        """Fold one raw block into the running bounding box of the stream."""
        low = points.min(axis=0)
        high = points.max(axis=0)
        if self._bounds_low is None:
            self._bounds_low = low
            self._bounds_high = high
        else:
            self._bounds_low = np.minimum(self._bounds_low, low)
            self._bounds_high = np.maximum(self._bounds_high, high)

    def _wants_cost_bound(self) -> bool:
        return (
            self.cache_cost_bound
            and bool(getattr(self.sampler, "consumes_cost_bound", False))
            and getattr(self.sampler, "k", None) is not None
        )

    def _stream_hints(
        self, points: np.ndarray
    ) -> Tuple[Optional[float], Optional[float]]:
        """Cached (spread, crude cost bound), refreshed when the box changes size.

        The two caches share one staleness signal: whenever the bounding box
        diagonal outgrows the configured factor, shrinks below its inverse,
        or the refresh interval expires, *both* are recomputed from the
        triggering block — spread first, then the Algorithm-2 bound off that
        fresh spread, drawing from the dedicated cache generator in that
        fixed order.  The box only shrinks in a windowed tree, once blocks
        expire: a spread measured on a much larger window overestimates the
        live one.  The append-only tree's box never shrinks below its size
        at the last refresh, so that clause never fires there.
        """
        if not self.share_stream_state:
            return None, None
        if self._bounds_low is None or points.shape[0] < 2:
            return None, None
        diameter = float(np.linalg.norm(self._bounds_high - self._bounds_low))
        self._blocks_since_refresh += 1
        wants_bound = self._wants_cost_bound()
        stale = (
            self._cached_spread is None
            or (wants_bound and self._cached_cost_bound is None)
            or diameter > self.spread_refresh_factor * self._cached_diameter
            or diameter * self.spread_refresh_factor < self._cached_diameter
            or self._blocks_since_refresh > self.spread_refresh_interval
        )
        if stale:
            with _obs.span("stream.hint_refresh", rows=int(points.shape[0])):
                self._cached_spread = compute_spread(points, seed=self._spread_generator)
                self._cached_diameter = diameter
                self._blocks_since_refresh = 0
                self.spread_refreshes += 1
                _obs.counter_add("stream.spread_refreshes", 1.0)
                if wants_bound:
                    self._cached_cost_bound = crude_cost_upper_bound(
                        points,
                        int(self.sampler.k),
                        spread=self._cached_spread,
                        seed=self._spread_generator,
                    ).upper_bound
                    self.cost_bound_refreshes += 1
                    _obs.counter_add("stream.cost_bound_refreshes", 1.0)
                else:
                    self._cached_cost_bound = None
        return self._cached_spread, self._cached_cost_bound

    # ------------------------------------------------------- spawn-keyed seeds
    def _leaf_seed(self, block_index: int) -> np.random.SeedSequence:
        return keyed_seed_sequence(self._spawn_root, KEY_STREAM_LEAF, block_index)

    def _reduce_seed(self, reduce_index: int) -> np.random.SeedSequence:
        return keyed_seed_sequence(self._spawn_root, KEY_STREAM_REDUCE, reduce_index)

    def _submit_reduce(
        self,
        partner: Union[Coreset, Future],
        current: Union[Coreset, Future],
        reduce_index: int,
        spread_hint: Optional[float],
        cost_bound_hint: Optional[float],
        executor: AsyncExecutor,
    ) -> Future:
        """Ship one reduce compression to the pool, inputs possibly in flight.

        The seed, size cap, and hints are captured *now*, during the host's
        carry walk — the submission that eventually happens (from whichever
        completion callback resolves the last input) has no stochastic
        freedom left.  The payload is the two coreset messages concatenated
        exactly as :func:`~repro.core.coreset.merge_coresets` would, in
        ``[partner, current]`` order, so ``compress_shard`` over the whole
        payload computes byte-for-byte what ``sampler.sample`` on the merged
        coreset computes.
        """
        seed = self._reduce_seed(reduce_index)
        sampler = self.sampler
        size_cap = self.coreset_size

        def _build(resolved: List[Coreset]) -> Tuple[ShardTask, ArrayPayload]:
            payload = merge_payload(resolved)
            n = payload.points.shape[0]
            task = ShardTask(
                index=reduce_index,
                start=0,
                stop=n,
                m=min(size_cap, n),
                sampler=sampler,
                seed=seed,
                spread=spread_hint,
                cost_bound=cost_bound_hint,
                stage="reduce",
            )
            return task, payload

        return submit_when_ready(executor, compress_shard, [partner, current], _build)

    def _fold_async(
        self,
        current: Union[Coreset, Future],
        spread_hint: Optional[float],
        cost_bound_hint: Optional[float],
        executor: AsyncExecutor,
    ) -> None:
        """The future-aware carry chain: walk levels, offload every reduce.

        Partners pop and reduce indices are assigned here, in arrival
        order, but the compressions themselves become pool tasks chained on
        their inputs' futures, so the host never blocks.  Reduce
        compressions reuse the spread and cost-bound hints of the leaf that
        triggered them (they compress a merge of coresets *of blocks already
        observed*, so the hints are equally valid).  Bit-identity across
        executors follows because every stochastic input (seed, hints, size
        cap, merge order) is fixed here, before any scheduling happens.
        """
        level = 0
        while level in self.levels:
            partner = self.levels.pop(level)
            current = self._submit_reduce(
                partner, current, self.reductions, spread_hint, cost_bound_hint, executor
            )
            self.reductions += 1
            self.reduces_offloaded += 1
            _obs.counter_add("stream.reduces_offloaded", 1.0)
            level += 1
        self.levels[level] = current

    # --------------------------------------------------------- ingest hooks
    def _leaf(self, points: np.ndarray, weights: np.ndarray, position: int) -> _Bucket:
        """Per-block hook of :meth:`add_blocks`: count and observe the block
        at ``position`` in its batch, fix its hints, return its leaf record."""
        index = self.blocks_seen
        self.blocks_seen += 1
        _obs.counter_add("stream.blocks", 1.0)
        if self.share_stream_state and points.shape[0]:
            self._observe(points)
        return _Bucket.leaf(index, float(index), *self._stream_hints(points))

    def _enqueue(self, leaf: _Bucket, executor: AsyncExecutor) -> None:
        """Per-record hook after submission: walk the carry chain now,
        offloading each reduce; the queue entry only throttles in-flight
        leaves."""
        self._fold_async(leaf.value, leaf.spread, leaf.cost_bound, executor)
        self._pending.append(leaf)

    def add_blocks(
        self,
        blocks: Iterable[Union[Block, "Future"]],
        *,
        executor: Union[None, str, AsyncExecutor] = None,
    ) -> None:
        """Consume a batch of blocks, compressing the leaves concurrently.

        The host walks the batch in arrival order — :meth:`_leaf` updates
        the bounding box, the spread cache, and the leaf seed assignment
        once per block, whatever the batch size — then fans the (now fully
        determined) leaf compressions out to the executor and hands every
        record to :meth:`_enqueue` in arrival order, which walks the carry
        chain over the leaf futures (:meth:`_fold_async`).  The batch is
        stacked into one payload so the process backend ships each leaf as
        offsets into shared memory rather than pickled blocks.  A record the
        hook already filled (the windowed tree's verbatim small blocks) is
        not compressed.

        Items of ``blocks`` may be :class:`concurrent.futures.Future`
        objects resolving to ``(points, weights)`` — the shape an
        asynchronous reader produces — and are resolved in arrival order,
        so the stream's identity (and therefore every derived seed) is
        unchanged.

        The leaf futures are enqueued and settled lazily — immediately down
        to :attr:`pending_limit` outstanding futures (all of them when the
        limit is ``None``), the rest by later calls or :meth:`flush` /
        :meth:`finalize`.  ``None`` or a backend name is resolved with
        :func:`~repro.parallel.executor.resolve_async_executor` for this
        call only: the batch is flushed and the executor closed before
        returning.  The carry chain is walked in arrival order, so every
        scheduling produces the identical tree.
        """
        records = []
        for position, block in enumerate(blocks):
            if isinstance(block, Future):
                block = block.result()
            points, weights = block
            points = np.asarray(points, dtype=np.float64)
            if weights is None:
                weights = np.ones(points.shape[0], dtype=np.float64)
            records.append((points, weights, self._leaf(points, weights, position)))
        if not records:
            return
        leaves = [record for record in records if record[2].value is None]
        tasks = []
        start = 0
        for index, (points, _, leaf) in enumerate(leaves):
            stop = start + points.shape[0]
            tasks.append(
                ShardTask(
                    index=index,
                    start=start,
                    stop=stop,
                    m=self.coreset_size,
                    sampler=self.sampler,
                    seed=self._leaf_seed(leaf.start),
                    spread=leaf.spread,
                    cost_bound=leaf.cost_bound,
                    stage="leaf",
                )
            )
            start = stop
        payload = None
        if len(leaves) == 1:
            # A one-leaf batch (the common `add_block`-sized case): the
            # block already *is* the payload — skip the concatenate copy.
            payload = ArrayPayload(points=leaves[0][0], weights=leaves[0][1])
        elif leaves:
            payload = ArrayPayload(
                points=np.concatenate([points for points, _, _ in leaves], axis=0),
                weights=np.concatenate([weights for _, weights, _ in leaves], axis=0),
            )
        owns_executor = not isinstance(executor, AsyncExecutor)
        executor = resolve_async_executor(executor)
        try:
            futures = iter(executor.submit_many(compress_shard, tasks, payload=payload))
            for _, _, record in records:
                if record.value is None:
                    record.value = next(futures)
                self._enqueue(record, executor)
            self.pending_high_water = max(self.pending_high_water, len(self._pending))
            _obs.gauge_set("stream.pending_high_water", float(self.pending_high_water))
            self._drain_pending(self.pending_limit)
            if owns_executor:
                self.flush()
        finally:
            if owns_executor:
                executor.close()

    def _drain_pending(self, limit: Optional[int]) -> None:
        """Settle queued entries (oldest first) down to ``limit``: the
        backpressure that bounds in-flight leaf memory.

        When one fails, everything still in flight is awaited before the
        error leaves, so no task of this tree (nor a reduce it would chain)
        still runs on a caller-owned executor the caller goes on to reuse.
        """
        target = 0 if limit is None else max(0, int(limit))
        try:
            while len(self._pending) > target:
                self._settle(self._pending.popleft())
        except Exception:
            for value in [leaf.value for leaf in self._pending] + list(self.levels.values()):
                if isinstance(value, Future):
                    value.exception()
            raise

    def _settle(self, leaf: _Bucket) -> None:
        """Wait for one leaf compression; its carry walk already happened."""
        with _obs.span("stream.pending_wait"):
            leaf.value.result()

    def flush(self) -> None:
        """Settle every compression still in flight (arrival order).

        After this returns no callback of ours will touch the executor
        again — the level slots may still hold futures, but they are
        *settled* ones, so the caller may safely close the pool before
        :meth:`finalize`.  Errors are kept in the futures and surface on
        resolution (``Future.exception()`` observes without raising).
        """
        self._drain_pending(None)
        for value in self.levels.values():
            if isinstance(value, Future):
                value.exception()

    def _host_reduce(
        self,
        coreset: Coreset,
        seed: np.random.SeedSequence,
        spread: Optional[float],
        cost_bound: Optional[float],
    ) -> Coreset:
        """Re-compress ``coreset`` to ``coreset_size`` on the host thread.

        The one host-side reduce (the final re-compression here; every fold
        and query of a windowed tree): a coreset that already fits is
        returned untouched.
        """
        if coreset.size <= self.coreset_size:
            return coreset
        started = time.perf_counter()
        with _obs.span("stream.host_reduce", rows=int(coreset.size)):
            reduced = self.sampler.sample(
                coreset.points,
                self.coreset_size,
                weights=coreset.weights,
                seed=seed,
                spread=spread,
                cost_bound=cost_bound,
            )
        self.host_reduce_seconds += time.perf_counter() - started
        self.host_reduces += 1
        self.reductions += 1
        _obs.counter_add("stream.host_reduces", 1.0)
        return reduced

    # ------------------------------------------------------------------
    def add_block(self, points: np.ndarray, weights: Optional[np.ndarray] = None) -> None:
        """Consume one block of the stream: a batch of one on the host."""
        self.add_blocks([(points, weights)])

    def finalize(self) -> Coreset:
        """Concatenate the surviving per-level compressions and reduce once more."""
        with _obs.span("stream.finalize"):
            self.flush()
            if not self.levels:
                raise ValueError("no blocks were added to the merge-&-reduce tree")
            survivors = [
                value.result() if isinstance(value, Future) else value
                for _, value in sorted(self.levels.items())
            ]
            combined = survivors[0] if len(survivors) == 1 else merge_coresets(survivors)
            final = self._host_reduce(
                combined,
                self._reduce_seed(self.reductions),
                self._cached_spread,
                self._cached_cost_bound,
            )
        final.method = f"merge_reduce[{self.sampler.name}]"
        return final


def _iterate_prefetched(stream: Iterable[Block], depth: int) -> Iterator[Block]:
    """Yield the stream's blocks while a background thread reads ahead.

    Up to ``depth`` blocks are buffered: the reader thread pulls the next
    blocks from ``stream`` (for a memory-mapped :class:`DataStream` this is
    where the disk pages are touched) while the consumer compresses the
    current one — the double-buffering that lets the async pipeline overlap
    I/O with compute.  Arrival *order* is exactly the stream's, so every
    seed the tree derives is unchanged.
    """
    depth = max(1, check_integer(depth, name="depth"))
    buffered: "queue.Queue" = queue.Queue(maxsize=depth)
    sentinel = object()
    stop = threading.Event()
    failure: List[BaseException] = []

    def _reader() -> None:
        try:
            for block in stream:
                while not stop.is_set():
                    try:
                        buffered.put(block, timeout=0.1)
                        break
                    except queue.Full:
                        continue
                if stop.is_set():
                    return
        except BaseException as error:  # noqa: BLE001 - re-raised by the consumer
            failure.append(error)
        finally:
            while not stop.is_set():
                try:
                    buffered.put(sentinel, timeout=0.1)
                    break
                except queue.Full:
                    continue

    thread = threading.Thread(target=_reader, name="repro-prefetch", daemon=True)
    thread.start()
    try:
        while True:
            with _obs.span("stream.prefetch_wait"):
                item = buffered.get()
            if item is sentinel:
                break
            yield item
        if failure:
            raise failure[0]
    finally:
        stop.set()
        thread.join()


@dataclass
class StreamingCoresetPipeline:
    """End-to-end streaming compression with a black-box sampler.

    Parameters
    ----------
    executor:
        ``None`` (default) consumes the stream one block at a time on the
        host.  A backend name or an
        :class:`~repro.parallel.executor.AsyncExecutor` compresses arriving
        leaves concurrently in batches and *overlaps* the batches — reading
        batch ``i+1`` from disk while batch ``i`` compresses in the pool.
        The tree's seeds are spawn-keyed (see :class:`MergeReduceTree`), so
        the coreset is bit-identical with no executor and across backends,
        worker counts, batch sizes, prefetch depths, and completion orders.
    batch_size:
        Number of blocks buffered per concurrent batch; defaults to the
        executor's worker count.  Affects wall-clock only, never the result.
    prefetch_batches:
        Depth of the read-ahead window in *batches* (double-buffering is
        ``1``; ``None`` means 2).  Setting it with ``executor=None`` runs
        the overlapped path on the serial backend.  Affects wall-clock and
        memory only, never the result.
    window:
        Optional :class:`~repro.streaming.window.WindowPolicy` switching
        the pipeline to a
        :class:`~repro.streaming.window.WindowedMergeReduceTree`: a
        :class:`~repro.streaming.window.SlidingCountWindow` keeps only the
        last ``N`` blocks, an
        :class:`~repro.streaming.window.ExponentialDecay` fades old blocks
        by half-life.  The final coreset then summarises the *window*, not
        the whole stream.
    drift_threshold:
        Forwarded to the windowed tree's drift detector (see
        :class:`~repro.streaming.window.WindowedMergeReduceTree`); only
        meaningful together with ``window``.

    Attributes
    ----------
    last_diagnostics:
        Mode-dependent diagnostics of the most recent :meth:`run` /
        :meth:`run_with_statistics` call (reduce offload split, host-reduce
        seconds, pending high-water mark).  Kept separate from the returned
        statistics, which stay mode-invariant by contract.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import UniformSampling
    >>> from repro.streaming import DataStream, StreamingCoresetPipeline
    >>> data = np.random.default_rng(0).normal(size=(1000, 5))
    >>> stream = DataStream(points=data, block_size=100)
    >>> pipeline = StreamingCoresetPipeline(sampler=UniformSampling(seed=0), coreset_size=50)
    >>> coreset = pipeline.run(stream)
    >>> coreset.size <= 50
    True
    """

    sampler: CoresetConstruction
    coreset_size: int
    seed: SeedLike = None
    share_stream_state: bool = True
    cache_cost_bound: bool = True
    executor: Union[None, str, AsyncExecutor] = None
    batch_size: Optional[int] = None
    prefetch_batches: Optional[int] = None
    window: Optional["WindowPolicy"] = None
    drift_threshold: Optional[float] = None
    last_diagnostics: ExecutionDiagnostics = field(
        default_factory=ExecutionDiagnostics, init=False, repr=False
    )

    def _tree(self) -> MergeReduceTree:
        kwargs = dict(
            sampler=self.sampler,
            coreset_size=self.coreset_size,
            seed=self.seed,
            share_stream_state=self.share_stream_state,
            cache_cost_bound=self.cache_cost_bound,
        )
        if self.window is None:
            return MergeReduceTree(**kwargs)
        # Imported here: window.py subclasses MergeReduceTree, so the
        # module-level import would be circular.
        from repro.streaming.window import WindowedMergeReduceTree

        return WindowedMergeReduceTree(
            **kwargs, window=self.window, drift_threshold=self.drift_threshold
        )

    def _consume_async(self, tree: MergeReduceTree, stream: Iterable[Block]) -> None:
        """The overlapped path: prefetch reads, async leaves and reduces."""
        executor = resolve_async_executor(self.executor, workers=1)
        owns_executor = executor is not self.executor
        depth = 2 if self.prefetch_batches is None else max(1, int(self.prefetch_batches))
        batch_size = self.batch_size if self.batch_size is not None else max(1, executor.workers)
        batch_size = max(1, batch_size)
        # The overlap window: leaves from up to `depth` batches may be in
        # flight while the reader thread buffers the same span of blocks.
        tree.pending_limit = depth * batch_size
        try:
            # Process backends fork their workers now, before the prefetch
            # reader thread exists (fork + threads do not mix).
            executor.prepare()
            batch: List[Block] = []
            for block in _iterate_prefetched(stream, depth * batch_size):
                batch.append(block)
                if len(batch) >= batch_size:
                    tree.add_blocks(batch, executor=executor)
                    batch = []
            if batch:
                tree.add_blocks(batch, executor=executor)
            tree.flush()
        finally:
            tree.pending_limit = None
            if owns_executor:
                executor.close()

    def run(self, stream: Iterable[Block]) -> Coreset:
        """Process every block of ``stream`` and return the final compression."""
        return self.run_with_statistics(stream)[0]

    def run_with_statistics(self, stream: Iterable[Block]) -> Tuple[Coreset, Dict[str, float]]:
        """Run and also report tree statistics (blocks, reductions, total weight).

        The returned statistics are mode-invariant (identical across
        backends and worker counts); the mode-*dependent* diagnostics land
        on :attr:`last_diagnostics` instead.
        """
        tree = self._tree()
        if self.executor is None and self.prefetch_batches is None:
            for points, weights in stream:
                tree.add_block(points, weights)
        else:
            self._consume_async(tree, stream)
        coreset = tree.finalize()
        blocks_expired = float(getattr(tree, "blocks_expired", 0))
        drift_events = float(getattr(tree, "drift_events", 0))
        self.last_diagnostics = ExecutionDiagnostics(
            reductions=float(tree.reductions),
            spread_refreshes=float(tree.spread_refreshes),
            cost_bound_refreshes=float(tree.cost_bound_refreshes),
            reduces_offloaded=float(tree.reduces_offloaded),
            host_reduces=float(tree.host_reduces),
            host_reduce_seconds=tree.host_reduce_seconds,
            pending_high_water=float(tree.pending_high_water),
            blocks_seen=float(tree.blocks_seen),
            blocks_expired=blocks_expired,
            drift_events=drift_events,
        )
        statistics = {
            "blocks": float(tree.blocks_seen),
            "reductions": float(tree.reductions),
            "coreset_size": float(coreset.size),
            "total_weight": coreset.total_weight,
            "spread_refreshes": float(tree.spread_refreshes),
            "cost_bound_refreshes": float(tree.cost_bound_refreshes),
            "blocks_expired": blocks_expired,
            "drift_events": drift_events,
        }
        return coreset, statistics


def stream_dataset(
    points: np.ndarray,
    sampler: CoresetConstruction,
    coreset_size: int,
    *,
    n_blocks: int = 16,
    weights: Optional[np.ndarray] = None,
    seed: SeedLike = None,
    share_stream_state: bool = True,
    window: Optional["WindowPolicy"] = None,
    drift_threshold: Optional[float] = None,
) -> Coreset:
    """Convenience wrapper: stream an in-memory dataset through merge-&-reduce.

    This is the exact setup of the paper's streaming experiments (Table 5 /
    Figure 5): the dataset is split into ``n_blocks`` blocks and compressed
    with the given sampler under composition.  With a ``window`` policy the
    result summarises only the live window of the stream (sliding count
    window) or its decay-weighted history (exponential decay).
    """
    stream = DataStream.with_block_count(points, n_blocks, weights=weights)
    pipeline = StreamingCoresetPipeline(
        sampler=sampler,
        coreset_size=coreset_size,
        seed=seed,
        share_stream_state=share_stream_state,
        window=window,
        drift_threshold=drift_threshold,
    )
    return pipeline.run(stream)


def level_pattern(n_blocks: int) -> List[List[int]]:
    """The block-grouping pattern held by the tree after ``n_blocks`` blocks.

    :class:`MergeReduceTree` behaves like a binary counter, so after
    ``n_blocks`` blocks it holds one surviving compression per set bit of
    ``n_blocks``: for seven blocks the groups cover ``[[7], [5, 6],
    [1, 2, 3, 4]]`` (most recent first), which is the same "one coreset per
    level" invariant the paper's footnote 10 illustrates.  Exposed for the
    unit tests that pin down the tree's shape.
    """
    n_blocks = check_integer(n_blocks, name="n_blocks")
    groups: List[List[int]] = []
    position = n_blocks
    remaining = n_blocks
    bit = 0
    while remaining > 0:
        size = 1 << bit
        if remaining & size:
            groups.append(list(range(position - size + 1, position + 1)))
            position -= size
            remaining -= size
        bit += 1
    return groups
