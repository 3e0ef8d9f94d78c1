"""Deterministic dataset sharding and the shard-compression task unit.

Two decisions make sharded compression reproducible regardless of how it is
executed:

1. **Shard contents** depend only on ``(n, n_shards)`` and — when the
   partition is randomised — on one dedicated child of the root seed: the
   host draws a single permutation and lays the dataset out in shard order,
   so shard ``i`` is always the contiguous slice ``bounds[i]``.  Contiguous
   slices are what lets the process backend ship shards as offsets into one
   shared-memory block.
2. **Shard randomness** is spawn-keyed: shard ``i`` compresses under the
   child sequence ``keyed_seed_sequence(root, KEY_SHARD, i)``, a pure
   function of the user seed and the shard index.

Together these mean every executor backend at every worker count produces
bit-identical shard coresets, the same contract discipline as the golden
quadtree cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import observability as _obs
from repro.core.base import CoresetConstruction
from repro.core.coreset import Coreset
from repro.parallel.executor import ArrayPayload
from repro.utils.rng import keyed_seed_sequence
from repro.utils.validation import check_integer

#: Namespaces for :func:`repro.utils.rng.keyed_seed_sequence` derivation.
#: Frozen constants — changing them changes every sharded coreset.
KEY_PARTITION = 0  #: the shard-assignment permutation
KEY_SHARD = 1  #: per-shard compression randomness (keyed by shard index)
KEY_FINAL = 2  #: the host-side final re-compression
KEY_STREAM_LEAF = 3  #: streaming leaf compressions (keyed by block index)
KEY_STREAM_REDUCE = 4  #: streaming reduce compressions (keyed by reduce index)
KEY_STREAM_QUERY = 5  #: windowed-stream query/final compressions (keyed by query index)


def shard_bounds(n: int, n_shards: int) -> List[Tuple[int, int]]:
    """Split ``range(n)`` into at most ``n_shards`` contiguous, non-empty slices.

    Sizes follow :func:`numpy.array_split` semantics (the first ``n mod
    n_shards`` shards get one extra row) so no shard exceeds
    ``ceil(n / n_shards)`` — the memory bound the MapReduce analysis assumes
    per worker.  When ``n < n_shards`` the empty tail shards are dropped.
    """
    n = check_integer(n, name="n")
    n_shards = check_integer(n_shards, name="n_shards")
    n_shards = min(n_shards, n)
    base, extra = divmod(n, n_shards)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for index in range(n_shards):
        stop = start + base + (1 if index < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


@dataclass(frozen=True)
class ShardTask:
    """One unit of work: compress ``payload.points[start:stop]`` to ``m`` points.

    The task ships only offsets, the (tiny) sampler configuration, and a
    spawn-keyed seed — never the point block itself.  ``m`` is clamped to the
    slice length at execution time, so a shard smaller than its message
    size sends itself whole.
    """

    index: int
    start: int
    stop: int
    m: int
    sampler: CoresetConstruction
    seed: np.random.SeedSequence
    spread: Optional[float] = None
    cost_bound: Optional[float] = None
    #: Observability label only — which pipeline stage this compression
    #: serves ("shard", "leaf", "reduce", "final").  Never feeds the
    #: computation, so traced and untraced runs stay bit-identical.
    stage: str = "shard"


def compress_shard(payload: ArrayPayload, task: ShardTask) -> Coreset:
    """Task function executed by any backend (module-level: picklable by reference).

    The span below is the one instrumentation point that covers every
    compression the executor runs — shard map tasks, streaming leaves, and
    offloaded reduces — host- or worker-side alike (worker-side spans ride
    back through the piggyback protocol in ``executor.py``).
    """
    with _obs.span(
        f"compress.{task.stage}", index=task.index, rows=task.stop - task.start, m=task.m
    ):
        points = payload.points[task.start : task.stop]
        weights = payload.weights[task.start : task.stop]
        return task.sampler.sample(
            points,
            min(task.m, points.shape[0]),
            weights=weights,
            seed=task.seed,
            spread=task.spread,
            cost_bound=task.cost_bound,
        )


def merge_payload(coresets: Sequence[Coreset]) -> ArrayPayload:
    """Concatenate coreset messages into one reduce-task payload.

    The arrays are byte-identical to what
    :func:`repro.core.coreset.merge_coresets` would produce (same
    concatenation, same order), so a reduce task compressing
    ``payload.points[0:n]`` computes exactly what ``sampler.sample`` on the
    merged coreset would — the property the async equivalence suite pins.
    The payload is *small* (a few coreset-sized messages), which is what
    lets reduces ride the executor without re-publishing the dataset.
    """
    return ArrayPayload(
        points=np.concatenate([coreset.points for coreset in coresets], axis=0),
        weights=np.concatenate([coreset.weights for coreset in coresets], axis=0),
    )


def shard_seed(root: np.random.SeedSequence, index: int) -> np.random.SeedSequence:
    """The spawn-keyed child sequence shard ``index`` compresses under."""
    return keyed_seed_sequence(root, KEY_SHARD, index)
