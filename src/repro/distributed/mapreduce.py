"""Simulated single-round MapReduce coreset aggregation (Section 2.3).

The computation model: several workers, none of which can hold the whole
dataset, each receive a random shard; the expensive resource is the data
exchanged between workers and the host.  The coreset recipe of [36] needs a
single round:

1. *(map)* every worker compresses its shard with a black-box sampler;
2. *(shuffle)* every worker sends its compression — whose size does not
   depend on the shard size — to the host;
3. *(reduce)* the host unions the messages (a coreset of the full dataset,
   by composition) and can either re-compress it or solve the clustering
   task on it directly.

By default the simulation executes the workers sequentially (preserving the
seed-for-seed behaviour of earlier releases); passing an ``executor`` to
:meth:`MapReduceCoresetAggregator.run` delegates the map phase to the
parallel execution engine (:mod:`repro.parallel`), which compresses the
shards concurrently — on the thread or shared-memory process backend — and
produces bit-identical results at every worker count.  Either way the run
tracks exactly the quantities the MapReduce analysis cares about:
per-worker shard sizes, message sizes, and total communication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Union

import numpy as np

from repro.core.base import CoresetConstruction
from repro.core.coreset import Coreset, merge_coresets
from repro.utils.rng import SeedLike, as_generator, random_seed_from
from repro.utils.validation import check_integer, check_points, check_weights

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.parallel.executor import AsyncExecutor


@dataclass
class MapReduceRound:
    """Bookkeeping of one simulated MapReduce round.

    Attributes
    ----------
    coreset:
        The host-side compression after the round.
    worker_coresets:
        The per-worker messages (kept for inspection and tests).
    shard_sizes:
        Number of points each worker received.
    message_sizes:
        Number of weighted points each worker sent to the host.
    communication:
        Total number of floats shipped to the host
        (``sum(message_size * (d + 1))``), the quantity the MapReduce cost
        model charges for.
    metadata:
        Free-form diagnostics.  Always records the sampler name under
        ``"sampler"`` (a string) and the realised worker count under
        ``"n_workers"``; the executor path adds ``"backend"`` and
        ``"workers"``.
    """

    coreset: Coreset
    worker_coresets: List[Coreset]
    shard_sizes: List[int]
    message_sizes: List[int]
    communication: int
    metadata: Dict[str, Union[float, str]] = field(default_factory=dict)


class MapReduceCoresetAggregator:
    """Single-round distributed compression with a black-box sampler.

    Parameters
    ----------
    sampler:
        Any :class:`~repro.core.base.CoresetConstruction`; used by every
        worker and (optionally) by the host's final re-compression.
    n_workers:
        Number of simulated computation entities.
    coreset_size_per_worker:
        Size of the message each worker produces.
    final_coreset_size:
        Optional size of the host-side re-compression; ``None`` keeps the
        plain union (``n_workers * coreset_size_per_worker`` points).
    seed:
        Randomness for the shard assignment and per-worker sampling.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import SensitivitySampling
    >>> from repro.distributed import MapReduceCoresetAggregator
    >>> data = np.random.default_rng(0).normal(size=(2000, 8))
    >>> aggregator = MapReduceCoresetAggregator(
    ...     sampler=SensitivitySampling(k=10, seed=0),
    ...     n_workers=4,
    ...     coreset_size_per_worker=100,
    ...     seed=0,
    ... )
    >>> round_result = aggregator.run(data)
    >>> round_result.coreset.size
    400
    """

    def __init__(
        self,
        sampler: CoresetConstruction,
        *,
        n_workers: int,
        coreset_size_per_worker: int,
        final_coreset_size: Optional[int] = None,
        seed: SeedLike = None,
    ) -> None:
        self.sampler = sampler
        self.n_workers = check_integer(n_workers, name="n_workers")
        self.coreset_size_per_worker = check_integer(
            coreset_size_per_worker, name="coreset_size_per_worker"
        )
        self.final_coreset_size = (
            None
            if final_coreset_size is None
            else check_integer(final_coreset_size, name="final_coreset_size")
        )
        self.seed = seed

    # ------------------------------------------------------------------
    def partition(self, n: int, generator: np.random.Generator) -> List[np.ndarray]:
        """Randomly partition ``range(n)`` into ``n_workers`` shards.

        The random partition is what the analysis in Section 2.3 assumes; it
        also means no worker needs more than ``~n / n_workers`` memory.
        """
        order = generator.permutation(n)
        return [shard for shard in np.array_split(order, self.n_workers) if shard.size > 0]

    def run(
        self,
        points: np.ndarray,
        *,
        weights: Optional[np.ndarray] = None,
        executor: Union[None, str, "AsyncExecutor"] = None,
    ) -> MapReduceRound:
        """Execute the map, shuffle, and reduce phases on ``points``.

        Parameters
        ----------
        points / weights:
            The dataset to compress.
        executor:
            ``None`` (default) keeps the historical sequential simulation,
            including its RNG stream — existing seeds reproduce exactly.
            A backend name (``"serial"``, ``"thread"``, ``"process"``) or an
            :class:`~repro.parallel.executor.AsyncExecutor` instance runs the map
            phase through the parallel engine instead: per-shard randomness
            is then spawn-keyed from the aggregator seed, so the round is
            bit-identical across backends and worker counts (but differs
            from the sequential simulation's stream).
        """
        if executor is not None:
            return self._run_with_executor(points, weights, executor)
        points = check_points(points)
        weights = check_weights(weights, points.shape[0])
        generator = as_generator(self.seed)

        shards = self.partition(points.shape[0], generator)
        worker_coresets: List[Coreset] = []
        shard_sizes: List[int] = []
        message_sizes: List[int] = []
        for shard in shards:
            shard_points = points[shard]
            shard_weights = weights[shard]
            m = min(self.coreset_size_per_worker, shard_points.shape[0])
            compression = self.sampler.sample(
                shard_points, m, weights=shard_weights, seed=random_seed_from(generator)
            )
            worker_coresets.append(compression)
            shard_sizes.append(int(shard.size))
            message_sizes.append(compression.size)

        union = merge_coresets(worker_coresets, method=f"mapreduce[{self.sampler.name}]")
        if self.final_coreset_size is not None and union.size > self.final_coreset_size:
            coreset = self.sampler.sample(
                union.points,
                self.final_coreset_size,
                weights=union.weights,
                seed=random_seed_from(generator),
            )
            coreset.method = f"mapreduce[{self.sampler.name}]"
        else:
            coreset = union

        dimension = points.shape[1]
        communication = sum(size * (dimension + 1) for size in message_sizes)
        return MapReduceRound(
            coreset=coreset,
            worker_coresets=worker_coresets,
            shard_sizes=shard_sizes,
            message_sizes=message_sizes,
            communication=int(communication),
            metadata={
                "n_workers": float(len(shards)),
                "sampler": self.sampler.name,
            },
        )

    # ------------------------------------------------------------------
    def _run_with_executor(
        self,
        points: np.ndarray,
        weights: Optional[np.ndarray],
        executor: Union[str, "AsyncExecutor"],
    ) -> MapReduceRound:
        """The map phase on the parallel engine (spawn-keyed randomness)."""
        from repro.parallel.sharded import ShardedCoresetBuilder

        builder = ShardedCoresetBuilder(
            self.sampler,
            n_shards=self.n_workers,
            coreset_size_per_shard=self.coreset_size_per_worker,
            final_coreset_size=self.final_coreset_size,
            shuffle=True,
            seed=self.seed,
        )
        build = builder.build(points, weights=weights, executor=executor)
        coreset = build.coreset
        coreset.method = f"mapreduce[{self.sampler.name}]"
        return MapReduceRound(
            coreset=coreset,
            worker_coresets=build.shard_coresets,
            shard_sizes=build.shard_sizes,
            message_sizes=build.message_sizes,
            communication=build.communication,
            metadata={
                "n_workers": float(len(build.shard_sizes)),
                "sampler": self.sampler.name,
                "backend": build.backend,
                "workers": float(build.workers),
            },
        )
