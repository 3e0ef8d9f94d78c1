"""Parallel execution engine: pluggable executors and sharded construction.

The subsystem has three layers:

* :mod:`repro.parallel.executor` — the :class:`AsyncExecutor` contract
  (futures, ordered ``map``, windowed ``map_unordered``) with its serial /
  thread / shared-memory process backends (the process backend ships shards
  as offsets into shared memory and keeps a persistent pool with
  attach-once segment reuse);
* :mod:`repro.parallel.sharding` — deterministic partitioning and the
  spawn-keyed per-shard seed derivation;
* :mod:`repro.parallel.sharded` — :class:`ShardedCoresetBuilder`, the
  single-round MapReduce build (Section 2.3) and the multi-core front door
  that the streaming pipeline and the CLI plug into.

The invariant every consumer relies on: the executor choice changes
wall-clock time only — coresets are bit-identical across backends, worker
counts, completion orders, and prefetch depths for a fixed seed.  See
``README.md`` in this package for the seed protocol that makes overlapped
execution safe.
"""

from repro.parallel.executor import (
    BACKENDS,
    ArrayPayload,
    AsyncExecutor,
    ProcessAsyncExecutor,
    SerialAsyncExecutor,
    ThreadAsyncExecutor,
    chain_future,
    resolve_async_executor,
    submit_when_ready,
)
from repro.parallel.sharded import ShardedBuildResult, ShardedCoresetBuilder
from repro.parallel.sharding import ShardTask, compress_shard, merge_payload, shard_bounds

__all__ = [
    "BACKENDS",
    "ArrayPayload",
    "AsyncExecutor",
    "ProcessAsyncExecutor",
    "SerialAsyncExecutor",
    "ThreadAsyncExecutor",
    "chain_future",
    "resolve_async_executor",
    "submit_when_ready",
    "ShardedBuildResult",
    "ShardedCoresetBuilder",
    "ShardTask",
    "compress_shard",
    "merge_payload",
    "shard_bounds",
]
