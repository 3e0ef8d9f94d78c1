"""The benchmark's workloads: their inputs, the operation each repeats, and
the checks every output must pass.

Four workloads are closed loops with one client: each operation is one
in-process ``repro.cli.main(["compress", ...])`` call on an ``.npy`` file,
and the next starts when the previous returns.  ``window_slide`` is an open
loop: blocks arrive on a fixed schedule and each arrival runs
``WindowedMergeReduceTree.add_block`` then ``query()``.

Inputs depend only on the seed.  The closed-loop input is a Gaussian
mixture whose first 20 rows (all in cluster 0) are moved 1e4 away on axis 0:
uniform sampling misses that far cluster and scores a distortion in the
hundreds, while Fast-Coreset and sensitivity sampling stay near 1.1, so
``distortion_max`` catches any change that weakens importance sampling.

``repro`` is imported inside the functions: ``run.py`` imports this module
before it has checked that the program's sources are there.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

import numpy as np

DIMENSION = 10
OUTLIER_ROWS = 20
OUTLIER_SHIFT = 1e4

#: Pool workers of the pool workloads: the benchmark host has 2 cores, and a
#: parallel time only means something with at least as many cores as workers.
WORKERS = 2

#: Largest distortion an output may show and still count as correct.
MAX_DISTORTION = 1.5

#: Largest relative error allowed between a coreset's total weight and the
#: mass it summarises (sampling only estimates it; a few percent is usual).
MAX_MASS_ERROR = 0.25

#: How many of the first operations get the (costly) distortion check.
CHECKED_OPS = 3


@dataclass(frozen=True)
class CompressWorkload:
    """Closed loop, one client: ``repro compress`` on an ``n``-row ``.npy``."""

    name: str
    n: int
    k: int
    m: int
    flags: Tuple[str, ...]
    #: Operations traced after the timed phase (``--trace 1``).
    traced_ops: int = 3
    #: Upper bound on timed operations (``None``: as many as fit the time).
    max_ops: Union[int, None] = None

    def make_points(self, seed: int, seconds: float) -> np.ndarray:
        """The seed's input: a 50-cluster mixture plus one far 20-row cluster."""
        from repro.data.synthetic import gaussian_mixture

        points = gaussian_mixture(
            self.n, DIMENSION, n_clusters=50, gamma=1.0, seed=seed
        ).points
        points[:OUTLIER_ROWS, 0] += OUTLIER_SHIFT
        return points

    def compress_argv(self, data: str, output: str, seed: int) -> List[str]:
        return [
            "compress", data, "--k", str(self.k), "--m", str(self.m), *self.flags,
            "--seed", str(seed), "--output", output,
        ]

    def evaluate_argv(self, data: str, coreset: str, seed: int) -> List[str]:
        return ["evaluate", data, coreset, "--k", str(self.k), "--seed", str(seed)]


@dataclass(frozen=True)
class WindowWorkload:
    """Open loop: ``block``-row arrivals at ``rate`` per second into a
    sliding-window tree, each followed by a query of the live window."""

    name: str
    block: int
    k: int
    m: int
    window: int
    drift_threshold: float
    rate: float
    traced_blocks: int = 40
    #: Fixed block count for the timed phase (``None``: ``rate * seconds``).
    blocks: Union[int, None] = None

    def timed_blocks(self, seconds: float) -> int:
        return self.blocks if self.blocks is not None else max(1, round(self.rate * seconds))

    def make_points(self, seed: int, seconds: float) -> np.ndarray:
        """Enough drifting-mixture rows for the timed and the traced phase.

        The mixture jumps halfway through the timed phase, so the drift
        detector fires there.
        """
        from repro.data.synthetic import drifting_mixture

        timed = self.timed_blocks(seconds)
        blocks = timed + self.traced_blocks
        return drifting_mixture(
            blocks * self.block, DIMENSION, drift_at=timed / 2 / blocks, seed=seed
        ).points

    def build_tree(self, seed: int):
        from repro.core import FastCoreset
        from repro.streaming import SlidingCountWindow, WindowedMergeReduceTree

        return WindowedMergeReduceTree(
            sampler=FastCoreset(self.k),
            coreset_size=self.m,
            seed=seed,
            window=SlidingCountWindow(self.window),
            drift_threshold=self.drift_threshold,
        )


Workload = Union[CompressWorkload, WindowWorkload]

_POOL_FLAGS = ("--workers", str(WORKERS), "--backend", "process")

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # Quadtree fit, Fast-kmeans++ and spread reduction carry the op;
        # k-means++ never runs.
        CompressWorkload(
            "static_fast", n=200_000, k=200, m=8000, flags=("--method", "fast_coreset")
        ),
        # k-means++ is almost the whole op and the quadtree never runs: each
        # static workload skips the other's layer.
        CompressWorkload(
            "static_sensitivity", n=200_000, k=200, m=8000, flags=("--method", "sensitivity")
        ),
        # Merge-&-reduce on the async pool from an mmap'd file: 31 small
        # compressions, prefetch, offloaded reduces, the stream hint caches.
        # k stays above the input's 51 clusters: at k=50 the evaluation has
        # to merge two clusters, and which two swings distortion from 1.0 to 1.9.
        CompressWorkload(
            "stream_pool",
            n=200_000,
            k=100,
            m=4000,
            flags=("--prefetch-batches", "2", "--blocks", "16", *_POOL_FLAGS),
        ),
        # The only workload on the sync ProcessExecutor + sharded builder:
        # one publish, four large shard compressions, a host final reduce.
        CompressWorkload(
            "sharded_pool",
            n=400_000,
            k=200,
            m=8000,
            flags=("--shards", "4", *_POOL_FLAGS),
        ),
        # Writes beside reads at ~45% busy; 12 blocks/s saturates the host.
        WindowWorkload(
            "window_slide",
            block=4000,
            k=20,
            m=800,
            window=8,
            drift_threshold=0.25,
            rate=8.0,
        ),
    )
}


def smoke(workload: Workload) -> Workload:
    """The same workload at test scale: a tenth of the rows, two ops.

    k and m stay as they are: with k below the input's 51 clusters, or
    m/k near 10, distortion exceeds the 1.5 check on some seeds.
    """
    if isinstance(workload, WindowWorkload):
        return dataclasses.replace(workload, rate=200.0, blocks=12, traced_blocks=4)
    return dataclasses.replace(workload, n=workload.n // 10, traced_ops=1, max_ops=2)


def coreset_problems(points: np.ndarray, weights: np.ndarray, size: int, mass: float) -> List[str]:
    """What is wrong with a coreset of ``mass`` input points (empty: nothing)."""
    problems = []
    if points.shape[0] != size or weights.shape != (size,):
        problems.append(f"coreset has {points.shape[0]} points / {weights.shape} weights, expected {size}")
    if not np.all(np.isfinite(points)):
        problems.append("coreset points are not all finite")
    if not (np.all(np.isfinite(weights)) and np.all(weights > 0)):
        problems.append("coreset weights are not all finite and positive")
    error = abs(float(weights.sum()) / mass - 1.0)
    if not error <= MAX_MASS_ERROR:
        problems.append(f"total weight is off by {error:.3f} of the input mass")
    return problems
