"""Windowed and decaying stream semantics for the merge-&-reduce tree.

The paper's streaming experiments (Section 5.4) only ever *add* blocks, but
real traffic expires: a dashboard wants the coreset of the last hour, a
recommender wants old behaviour to fade.  This module extends the
merge-&-reduce tree with exactly that scenario axis:

* a :class:`WindowPolicy` decides, per bucket, whether it has *expired*
  (sliding count window) or how strongly it is *down-weighted* (exponential
  time decay) relative to the newest block;
* :class:`WindowedMergeReduceTree` stamps every bucket with its
  ``[start, stop)`` block-index range and its timestamp span, retires or
  decays buckets before folds, and answers non-destructive :meth:`queries
  <WindowedMergeReduceTree.query>` for the *current* window without
  stopping ingestion;
* a :class:`DriftDetector` watches the per-block mean and fires the
  bounding-box refresh signal (the PR 2/5 hook) when the incoming
  distribution moves, so the shared spread / cost-bound caches are never
  served stale across a drift.

Bucket-expiry protocol
----------------------
A sliding count window must reproduce the window's input-point multiset
*exactly* (pinned by ``reference/naive_window.py``), and any bucket merging
two or more blocks eventually straddles the expiry boundary — so expiring
policies declare ``merges = False`` and the tree keeps one **unmerged leaf
bucket per live block** in a FIFO deque (``O(window * coreset_size)``
memory instead of the non-windowed tree's ``O(log b * coreset_size)`` — the
price of exact expiry).  Decay policies never expire anything, declare
``merges = True``, and keep the binary-counter carry chain: at every fold
the older bucket's weights are scaled by the *relative* decay between the
two buckets' newest timestamps, and survivors are scaled down to "now" at
query time.  The relative scheme keeps every factor in ``(0, 1]`` (no
overflow for arbitrarily long streams) and telescopes to the same total
factor a from-scratch recompute applies, up to float rounding.

Compressions whose input already fits in ``coreset_size`` are kept verbatim
(a point set of at most ``m`` points is a 0-coreset of itself): this is
what preserves per-point decayed weights across folds — resampling would
flatten them — and what lets the oracle suite compare retained multisets
bit-for-bit in lossless configurations.

Determinism matches the non-windowed tree's contract: every stochastic
input (leaf seeds keyed by block index, fold seeds keyed by fold index,
query seeds keyed by query index, hints fixed during the host walk) is a
pure function of the block sequence, so one block at a time and every
executor backend produce bit-identical coresets.  Only leaf compressions
go to the executor; fold and query compressions run on the host thread,
when a bucket settles or a query is answered.
"""

from __future__ import annotations

import abc
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Deque, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import observability as _obs
from repro.core.coreset import Coreset, merge_coresets, trivial_coreset
# Unused here; benchmarks/e2e/layers.py patches this name (WRAPPERS).
from repro.core.spread_reduction import crude_cost_upper_bound  # noqa: F401
from repro.parallel.executor import AsyncExecutor
from repro.parallel.sharding import KEY_STREAM_QUERY
from repro.streaming.merge_reduce import MergeReduceTree, _Bucket
from repro.streaming.stream import Block
from repro.utils.rng import keyed_seed_sequence

__all__ = [
    "DriftDetector",
    "ExponentialDecay",
    "SlidingCountWindow",
    "WindowPolicy",
    "WindowedMergeReduceTree",
]


class WindowPolicy(abc.ABC):
    """Decides which buckets are live and how strongly they count.

    Attributes
    ----------
    name:
        Short identifier used in coreset ``method`` strings and CLI output.
    expires:
        Whether buckets ever retire.  Expiring policies force unmerged
        per-block buckets (see the module docstring's expiry protocol).
    merges:
        Whether the binary-counter carry chain may merge equal-span
        buckets.  Mutually exclusive with exact expiry: a merged bucket
        cannot retire one of its blocks without recomputation.
    """

    name: str = "window"
    expires: bool = False
    merges: bool = True

    def expired(self, start: int, stop: int, now: int) -> bool:
        """True when the bucket covering blocks ``[start, stop)`` is fully
        outside the window anchored at block index ``now``."""
        return False

    def decay(self, then: float, now: float) -> float:
        """Weight multiplier for mass stamped ``then``, observed at ``now``.

        Must be multiplicative over intermediate stamps
        (``decay(a, c) == decay(a, b) * decay(b, c)`` up to rounding) — the
        tree applies it incrementally at folds and once more at query time.
        """
        return 1.0


@dataclass(frozen=True)
class SlidingCountWindow(WindowPolicy):
    """Keep exactly the last ``blocks`` blocks; older buckets retire whole."""

    blocks: int = 8

    name = "sliding"
    expires = True
    merges = False

    def __post_init__(self) -> None:
        if int(self.blocks) < 1:
            raise ValueError(f"window must cover at least one block, got {self.blocks}")
        object.__setattr__(self, "blocks", int(self.blocks))

    def expired(self, start: int, stop: int, now: int) -> bool:
        # `stop` is past-the-end: the newest block of the bucket is
        # `stop - 1`, and the window anchored at `now` covers
        # [now - blocks + 1, now].
        return stop - 1 < now - self.blocks + 1


@dataclass(frozen=True)
class ExponentialDecay(WindowPolicy):
    """Halve the weight of past mass every ``half_life`` timestamp units.

    Nothing ever expires, so the binary-counter merge hierarchy is kept;
    old blocks simply fade.  Timestamps default to block indices, making
    ``half_life`` "number of blocks until half weight" unless the caller
    stamps blocks explicitly.
    """

    half_life: float = 8.0

    name = "decay"
    expires = False
    merges = True

    def __post_init__(self) -> None:
        if not float(self.half_life) > 0:
            raise ValueError(f"half_life must be positive, got {self.half_life}")
        object.__setattr__(self, "half_life", float(self.half_life))

    def decay(self, then: float, now: float) -> float:
        return float(0.5 ** ((now - then) / self.half_life))


@dataclass
class DriftDetector:
    """Flags a distribution shift from the stream of per-block means.

    The detector anchors a reference mean and fires when a block's mean
    moves further than ``threshold`` times the current window's bounding-box
    diagonal away from it (re-anchoring on fire).  The diagonal is the right
    yardstick here because it is exactly the quantity the spread /
    cost-bound caches were computed under — a mean excursion comparable to
    it means those caches describe a distribution that is no longer
    arriving.
    """

    threshold: float = 0.25

    def __post_init__(self) -> None:
        if not float(self.threshold) > 0:
            raise ValueError(f"threshold must be positive, got {self.threshold}")
        self._reference: Optional[np.ndarray] = None

    def observe(self, mean: np.ndarray, scale: float) -> bool:
        """Feed one block mean; returns True when drift fired."""
        mean = np.asarray(mean, dtype=np.float64)
        if self._reference is None or not scale > 0:
            self._reference = mean
            return False
        if float(np.linalg.norm(mean - self._reference)) > self.threshold * float(scale):
            self._reference = mean
            return True
        return False


@dataclass
class WindowedMergeReduceTree(MergeReduceTree):
    """A merge-&-reduce tree whose buckets expire or decay under a policy.

    Accepts every :class:`MergeReduceTree` parameter plus:

    Parameters
    ----------
    window:
        The :class:`WindowPolicy` (required).  :class:`SlidingCountWindow`
        retires whole buckets and disables merging (see the module
        docstring's expiry protocol); :class:`ExponentialDecay` keeps the
        carry chain and down-weights old buckets at folds and queries.
    drift_threshold:
        When set, a :class:`DriftDetector` with this threshold watches the
        per-block means and — on firing — invalidates the shared spread /
        cost-bound caches so the next compression re-estimates them from
        the post-drift data.  ``None`` disables detection.

    Attributes
    ----------
    blocks_expired / drift_events / last_drift_block:
        Mode-invariant window diagnostics: blocks retired from the window,
        drift-detector firings, and the block index of the latest firing
        (``-1`` when none fired).

    Ingestion is the inherited :meth:`MergeReduceTree.add_blocks` loop
    through this class's :meth:`_leaf` and :meth:`_enqueue` hooks, and
    only leaf compressions go to the executor: the inherited
    :meth:`_drain_pending` hands each in-flight bucket to :meth:`_settle`,
    which folds it on the host thread, and queries compress on the host
    too.  ``levels`` stays empty — live state is the stamped bucket deque,
    inspectable through :meth:`live_ranges`.
    """

    window: Optional[WindowPolicy] = None
    drift_threshold: Optional[float] = None
    blocks_expired: int = field(default=0, init=False)
    drift_events: int = field(default=0, init=False)
    last_drift_block: int = field(default=-1, init=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.window is None:
            raise ValueError("WindowedMergeReduceTree requires a window policy")
        if self.window.expires and self.window.merges:
            raise ValueError(
                f"policy {self.window.name!r} both expires and merges: a merged "
                "bucket cannot retire exactly (see the bucket-expiry protocol)"
            )
        self._detector = (
            DriftDetector(threshold=self.drift_threshold)
            if self.drift_threshold is not None
            else None
        )
        #: Settled live buckets, oldest first; the inherited ``_pending``
        #: deque holds the in-flight ones.
        self._buckets: Deque[_Bucket] = deque()
        #: Per-block bounding boxes of the live window (expiring policies
        #: only) as ``(block_index, low, high)`` — the window's box is their
        #: running union, recomputed when blocks retire.
        self._live_boxes: Deque[Tuple[int, np.ndarray, np.ndarray]] = deque()
        self._now_index: int = -1
        self._now_time: Optional[float] = None
        self._queries: int = 0
        #: The stamps of the batch :meth:`add_blocks` is ingesting.
        self._timestamps: Optional[Sequence[float]] = None

    # ------------------------------------------------------------ host walk
    def _walk(self, points: np.ndarray, stamp: float) -> _Bucket:
        """Advance the window to one arriving block: stamp, expire, observe.

        Everything stochastic a later compression consumes — the hint
        values, the expiry decisions, the seed indices — is fixed here, in
        arrival order, before any work is (possibly asynchronously)
        scheduled.
        """
        index = self.blocks_seen
        self.blocks_seen += 1
        _obs.counter_add("stream.blocks", 1.0)
        self._now_index = index
        self._now_time = stamp
        self._expire_settled()
        if points.shape[0]:
            if self.window.expires:
                self._live_boxes.append((index, points.min(axis=0), points.max(axis=0)))
                self._expire_boxes()
            else:
                self._observe(points)
            if self._detector is not None:
                self._observe_drift(points, index)
        return _Bucket.leaf(index, stamp, *self._stream_hints(points))

    def _expire_settled(self) -> None:
        """Retire settled buckets that fell out of the window."""
        if not self.window.expires:
            return
        while self._buckets and self.window.expired(
            self._buckets[0].start, self._buckets[0].stop, self._now_index
        ):
            bucket = self._buckets.popleft()
            self._count_expired(bucket)

    def _expire_boxes(self) -> None:
        """Drop retired per-block boxes and refresh the window's union box."""
        changed = False
        while self._live_boxes and self.window.expired(
            self._live_boxes[0][0], self._live_boxes[0][0] + 1, self._now_index
        ):
            self._live_boxes.popleft()
            changed = True
        if changed or self._bounds_low is None:
            if self._live_boxes:
                self._bounds_low = np.minimum.reduce([low for _, low, _ in self._live_boxes])
                self._bounds_high = np.maximum.reduce([high for _, _, high in self._live_boxes])
            else:
                self._bounds_low = None
                self._bounds_high = None
        else:
            _, low, high = self._live_boxes[-1]
            self._bounds_low = np.minimum(self._bounds_low, low)
            self._bounds_high = np.maximum(self._bounds_high, high)

    def _count_expired(self, bucket: _Bucket) -> None:
        self.blocks_expired += bucket.span
        _obs.counter_add("stream.blocks_expired", float(bucket.span))

    def _observe_drift(self, points: np.ndarray, index: int) -> None:
        if self._bounds_low is None:
            return
        diameter = float(np.linalg.norm(self._bounds_high - self._bounds_low))
        if self._detector.observe(points.mean(axis=0), diameter):
            self.drift_events += 1
            self.last_drift_block = index
            # Fire the refresh signal: the next _stream_hints call sees the
            # caches empty and re-estimates from the post-drift block.
            self._cached_spread = None
            self._cached_cost_bound = None
            _obs.counter_add("stream.drift_events", 1.0)

    # -------------------------------------------------------------- settling
    def _settle(self, bucket: _Bucket) -> None:
        """Fold one (possibly in-flight) bucket into the live window.

        A bucket that expired while still in flight is dropped without
        resolving into the window — but its future is still awaited so a
        failed compression surfaces instead of vanishing with the data.
        """
        if self.window.expired(bucket.start, bucket.stop, self._now_index):
            if isinstance(bucket.value, Future):
                with _obs.span("stream.pending_wait"):
                    bucket.value.result()
            self._count_expired(bucket)
            return
        if isinstance(bucket.value, Future):
            with _obs.span("stream.pending_wait"):
                bucket.value = bucket.value.result()
        if self.window.merges:
            self._carry(bucket)
        else:
            self._buckets.append(bucket)

    def _carry(self, bucket: _Bucket) -> None:
        """Binary-counter carry over the bucket deque (decay policies).

        A fold that raises (blocks that each pass the cost-range rule can
        overflow it together) puts both buckets back before the error
        leaves, so the window keeps their mass and every later query raises
        the same error, as the append-only tree's ``finalize()`` does.
        """
        while self._buckets and self._buckets[-1].span == bucket.span:
            partner = self._buckets.pop()
            try:
                bucket = self._fold_buckets(partner, bucket)
            except BaseException:
                self._buckets.extend((partner, bucket))
                raise
        self._buckets.append(bucket)

    def _decayed(self, coreset: Coreset, then: float, now: float) -> Coreset:
        factor = self.window.decay(then, now)
        if factor == 1.0:
            return coreset
        return Coreset(
            points=coreset.points,
            weights=coreset.weights * factor,
            indices=coreset.indices,
            method=coreset.method,
        )

    def _fold_buckets(self, older: _Bucket, newer: _Bucket) -> _Bucket:
        """Merge two settled buckets, decaying the older one to the newer's
        timestamp, and re-compress only when the union outgrows ``m``."""
        merged = merge_coresets(
            [self._decayed(older.value, older.newest_time, newer.newest_time), newer.value]
        )
        return _Bucket(
            value=self._host_reduce(
                merged, self._reduce_seed(self.reductions), newer.spread, newer.cost_bound
            ),
            start=older.start,
            stop=newer.stop,
            oldest_time=older.oldest_time,
            newest_time=newer.newest_time,
            spread=newer.spread,
            cost_bound=newer.cost_bound,
        )

    # ------------------------------------------------------------- ingestion
    def add_block(
        self,
        points: np.ndarray,
        weights: Optional[np.ndarray] = None,
        timestamp: Optional[float] = None,
    ) -> None:
        """Consume one block, stamped with ``timestamp`` (block index default)."""
        self.add_blocks(
            [(points, weights)], timestamps=None if timestamp is None else [timestamp]
        )

    def add_blocks(
        self,
        blocks: Iterable[Union[Block, "Future"]],
        *,
        executor: Union[None, str, AsyncExecutor] = None,
        timestamps: Optional[Sequence[float]] = None,
    ) -> None:
        """Consume a batch of blocks, stamped with ``timestamps`` (block
        indices by default), compressing oversized leaves concurrently.

        Same contract and same loop as the parent: the host walks the batch
        in arrival order (stamping, expiring, hint caching, seed
        assignment), then fans the fully determined leaf compressions out.
        Blocks that already fit in ``coreset_size`` become identity buckets
        on the host — there is nothing to compress.  The in-flight buckets
        are settled lazily down to :attr:`pending_limit`; ``None`` or a
        backend name is resolved for this call only, so the batch is
        flushed and the executor closed before returning.  Settling always
        happens in arrival order, so every scheduling produces the
        identical window.
        """
        self._timestamps = timestamps
        try:
            super().add_blocks(blocks, executor=executor)
        finally:
            self._timestamps = None

    def _checked_batch(self, blocks: Iterable[Union[Block, "Future"]]) -> List[Block]:
        """The base tree's block checks, then the stamps: one per block (block
        indices by default), none below the one before it."""
        batch = super()._checked_batch(blocks)
        if self._timestamps is None:
            stamps = [float(self.blocks_seen + position) for position in range(len(batch))]
        else:
            stamps = [float(stamp) for stamp in self._timestamps]
            if len(stamps) != len(batch):
                raise ValueError(f"got {len(stamps)} timestamps for {len(batch)} blocks")
        previous = self._now_time
        for stamp in stamps:
            if previous is not None and stamp < previous:
                raise ValueError(
                    f"timestamps must be non-decreasing: got {stamp} after {previous}"
                )
            previous = stamp
        self._timestamps = stamps
        return batch

    def _leaf(self, points: np.ndarray, weights: np.ndarray, position: int) -> _Bucket:
        """Walk one block; one of at most ``m`` points is kept verbatim."""
        bucket = self._walk(points, self._timestamps[position])
        if points.shape[0] <= self.coreset_size:
            bucket.value = trivial_coreset(points, weights)
        return bucket

    def _enqueue(self, bucket: _Bucket, executor: AsyncExecutor) -> None:
        """Queue the bucket; :meth:`_settle` folds it in arrival order."""
        self._pending.append(bucket)

    # --------------------------------------------------------------- queries
    def live_ranges(self) -> List[Tuple[int, int]]:
        """``[start, stop)`` block ranges of the live buckets, oldest first.

        Includes in-flight buckets that have not expired; this is the
        bookkeeping surface the oracle-equivalence suite checks against a
        from-scratch window recompute.
        """
        ranges = [(bucket.start, bucket.stop) for bucket in self._buckets]
        ranges.extend(
            (bucket.start, bucket.stop)
            for bucket in self._pending
            if not self.window.expired(bucket.start, bucket.stop, self._now_index)
        )
        return sorted(ranges)

    @property
    def buckets_live(self) -> int:
        """Number of live buckets (settled + unexpired in-flight)."""
        return len(self.live_ranges())

    def query(self) -> Coreset:
        """The coreset of the *current* window, without stopping ingestion.

        Settles everything in flight, decays each surviving bucket to the
        newest timestamp, merges, and re-compresses only if the union
        outgrows ``coreset_size``.  The result is a pure function of the
        block sequence and the number of earlier queries (query seeds are
        keyed by query index), so interleaved queries stay bit-identical
        across executors.
        """
        self.flush()
        if not self._buckets:
            raise ValueError("the window is empty: no live blocks to query")
        now = self._now_time
        survivors = [
            self._decayed(bucket.value, bucket.newest_time, now) for bucket in self._buckets
        ]
        combined = merge_coresets(survivors) if len(survivors) > 1 else survivors[0]
        seed = keyed_seed_sequence(self._spawn_root, KEY_STREAM_QUERY, self._queries)
        self._queries += 1
        final = self._host_reduce(combined, seed, self._cached_spread, self._cached_cost_bound)
        final.method = f"windowed_merge_reduce[{self.window.name}][{self.sampler.name}]"
        return final

    def finalize(self) -> Coreset:
        """End the stream and return the final window's coreset."""
        with _obs.span("stream.finalize"):
            return self.query()
