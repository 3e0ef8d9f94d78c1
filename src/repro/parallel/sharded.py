"""Sharded coreset construction on top of the pluggable executors.

This is the library's multi-core entry point for static datasets: partition
deterministically, compress every shard concurrently with any black-box
:class:`~repro.core.base.CoresetConstruction`, merge-reduce the messages.
By the composition property (Section 2.3 of the paper) the union of the
shard coresets is a coreset of the full dataset, and because both the shard
contents and the per-shard randomness are pure functions of the user seed
(see :mod:`repro.parallel.sharding`), the result is **bit-identical across
every backend and worker count** — the equivalence suite pins this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro import observability as _obs
from repro.core.base import CoresetConstruction
from repro.core.coreset import Coreset, merge_coresets
from repro.observability import ExecutionDiagnostics
from repro.parallel.executor import ArrayPayload, AsyncExecutor, resolve_async_executor
from repro.parallel.sharding import (
    KEY_FINAL,
    KEY_PARTITION,
    ShardTask,
    compress_shard,
    shard_bounds,
    shard_seed,
)
from repro.utils.rng import SeedLike, as_generator, as_seed_sequence, keyed_seed_sequence
from repro.utils.validation import check_integer, check_points, check_weights


@dataclass
class ShardedBuildResult:
    """Outcome and bookkeeping of one sharded construction.

    Attributes
    ----------
    coreset:
        The final compression (the union of the shard messages, or its
        re-compression when ``final_coreset_size`` is set).
    shard_coresets:
        The per-shard messages, in shard order.
    shard_sizes / message_sizes:
        Points received / sent by each shard.
    communication:
        Total floats shipped to the host (``sum(message_size * (d + 1))``),
        the quantity the MapReduce cost model charges for.
    backend / workers:
        Which executor ran the shard compressions.  Diagnostics only — by
        construction they never influence the coreset.
    metadata:
        Free-form diagnostics (sampler name, shard count, ...).  Pure
        functions of the build configuration — the equivalence suite
        compares them across backends.
    diagnostics:
        Mode-*dependent* execution diagnostics
        (:class:`~repro.observability.ExecutionDiagnostics`): whether a
        final re-compression was submitted to the pool
        (``reduces_offloaded``).  Deliberately separate from ``metadata``
        so backend equivalence stays byte-exact.
    """

    coreset: Coreset
    shard_coresets: List[Coreset]
    shard_sizes: List[int]
    message_sizes: List[int]
    communication: int
    backend: str
    workers: int
    metadata: Dict[str, Union[float, str]] = field(default_factory=dict)
    diagnostics: ExecutionDiagnostics = field(default_factory=ExecutionDiagnostics)


class ShardedCoresetBuilder:
    """Compress a dataset shard-by-shard under any executor backend.

    Parameters
    ----------
    sampler:
        Any :class:`~repro.core.base.CoresetConstruction`; used per shard
        and (optionally) for the final re-compression of their union.
    n_shards:
        Number of shards the dataset is partitioned into.  This — not the
        worker count — is what keys the result: fixing ``n_shards`` and the
        seed fixes the coreset no matter how many workers execute it.
    coreset_size_per_shard:
        Message size each shard produces (clamped to the shard size).
    final_coreset_size:
        Optional size of the final re-compression; ``None`` keeps the
        plain union.
    shuffle:
        Randomly permute points across shards (the random-shard model of
        Section 2.3) using a dedicated child of the seed.  ``False`` shards
        the input in its given order — the right choice for memory-mapped
        inputs, where a permutation would materialise the dataset.
    seed:
        Root randomness; every stochastic choice derives from it through
        spawn-style keys (:func:`repro.utils.rng.keyed_seed_sequence`).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import SensitivitySampling
    >>> from repro.parallel import ShardedCoresetBuilder
    >>> data = np.random.default_rng(0).normal(size=(2000, 8))
    >>> builder = ShardedCoresetBuilder(
    ...     sampler=SensitivitySampling(k=10, seed=0),
    ...     n_shards=4,
    ...     coreset_size_per_shard=100,
    ...     seed=0,
    ... )
    >>> builder.build(data).coreset.size
    400
    """

    def __init__(
        self,
        sampler: CoresetConstruction,
        *,
        n_shards: int,
        coreset_size_per_shard: int,
        final_coreset_size: Optional[int] = None,
        shuffle: bool = True,
        seed: SeedLike = None,
    ) -> None:
        self.sampler = sampler
        self.n_shards = check_integer(n_shards, name="n_shards")
        self.coreset_size_per_shard = check_integer(
            coreset_size_per_shard, name="coreset_size_per_shard"
        )
        self.final_coreset_size = (
            None
            if final_coreset_size is None
            else check_integer(final_coreset_size, name="final_coreset_size")
        )
        self.shuffle = bool(shuffle)
        self.seed = seed

    # ------------------------------------------------------------------
    def build(
        self,
        points: np.ndarray,
        *,
        weights: Optional[np.ndarray] = None,
        executor: Union[None, str, AsyncExecutor] = None,
        spread: Optional[float] = None,
    ) -> ShardedBuildResult:
        """Partition, compress every shard under ``executor``, and merge.

        Parameters
        ----------
        points / weights:
            The dataset; weights default to one per point.
        executor:
            ``None`` (serial), a backend name, or an
            :class:`~repro.parallel.executor.AsyncExecutor` instance.  The
            shard messages are collected in shard order with the ordered
            ``map`` and concatenated with
            :func:`~repro.core.coreset.merge_coresets`; the final
            re-compression is submitted as one more task.  A name or
            ``None`` is resolved here and closed before returning; an
            instance stays open.  Changes only wall-clock, never the
            coreset.
        spread:
            Optional precomputed spread estimate forwarded to every shard's
            sampler (the PR 2 sharing hook): one host-side estimate can
            serve all shards since only its logarithm is consumed.
        """
        points = check_points(points)
        weights = check_weights(weights, points.shape[0])
        owns_executor = not isinstance(executor, AsyncExecutor)
        executor = resolve_async_executor(executor)
        root = as_seed_sequence(self.seed)

        n = points.shape[0]
        if self.shuffle:
            # One host-side permutation lays the data out in shard order, so
            # every shard is a contiguous slice of the shared block.
            order = as_generator(keyed_seed_sequence(root, KEY_PARTITION)).permutation(n)
            shard_points = np.ascontiguousarray(points[order])
            shard_weights = np.ascontiguousarray(weights[order])
        else:
            shard_points = points
            shard_weights = weights

        bounds = shard_bounds(n, self.n_shards)
        tasks = [
            ShardTask(
                index=index,
                start=start,
                stop=stop,
                m=self.coreset_size_per_shard,
                sampler=self.sampler,
                seed=shard_seed(root, index),
                spread=spread,
            )
            for index, (start, stop) in enumerate(bounds)
        ]
        payload = ArrayPayload(points=shard_points, weights=shard_weights)
        method = f"sharded[{self.sampler.name}]"
        diagnostics = ExecutionDiagnostics()
        try:
            with _obs.span("sharded.build", n=n, shards=len(bounds)):
                with _obs.span("sharded.map", shards=len(tasks)):
                    # The union and the final reduce need every shard, so
                    # collecting in shard order costs no critical-path time.
                    shard_coresets = executor.map(compress_shard, tasks, payload=payload)
                    union = merge_coresets(shard_coresets, method=method)

                if self.final_coreset_size is not None and union.size > self.final_coreset_size:
                    # Ship the (small) union as one more task under the
                    # frozen KEY_FINAL seed, so every compression rides the
                    # executor.
                    final_task = ShardTask(
                        index=len(tasks),
                        start=0,
                        stop=union.size,
                        m=self.final_coreset_size,
                        sampler=self.sampler,
                        seed=keyed_seed_sequence(root, KEY_FINAL),
                        spread=spread,
                        stage="final",
                    )
                    final_payload = ArrayPayload(points=union.points, weights=union.weights)
                    with _obs.span("sharded.final_reduce"):
                        coreset = executor.submit(
                            compress_shard, final_task, payload=final_payload
                        ).result()
                    diagnostics.reduces_offloaded = 1.0
                    _obs.counter_add("sharded.reduces_offloaded", 1.0)
                    coreset.method = method
                else:
                    coreset = union
        finally:
            if owns_executor:
                executor.close()

        message_sizes = [message.size for message in shard_coresets]
        communication = sum(size * (points.shape[1] + 1) for size in message_sizes)
        return ShardedBuildResult(
            coreset=coreset,
            shard_coresets=shard_coresets,
            shard_sizes=[stop - start for start, stop in bounds],
            message_sizes=message_sizes,
            communication=int(communication),
            backend=executor.name,
            workers=executor.workers,
            metadata={
                "sampler": self.sampler.name,
                "n_shards": float(len(bounds)),
                "shuffle": float(self.shuffle),
            },
            diagnostics=diagnostics,
        )
