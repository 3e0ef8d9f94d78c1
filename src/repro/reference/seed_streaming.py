"""Frozen seed-revision streaming baselines for the perf harness.

Two frozen components let ``benchmarks/bench_perf_hotpaths.py`` time the
shared-work streaming layer against the behaviour it replaced:

* :func:`seed_compute_spread` — the seed revision's spread estimate: a full
  pairwise-distance matrix over a 2000-point subsample (the live
  :func:`repro.geometry.quadtree.compute_spread` now evaluates only blocked
  windows along a random projection).
* :class:`SeedMergeReduceTree` — the merge-&-reduce tree as it stood before
  per-stream state sharing: no running bounding box, no cached estimate;
  every compression (leaf or reduction) re-derives the spread of its input
  from scratch.  The seed-era :class:`~repro.core.fast_coreset.FastCoreset`
  paid that estimate twice per fit (once for the original points, once for
  the spread-reduced substitute), a cost profile this baseline reproduces by
  paying the two frozen estimates itself and handing the value to the live
  sampler through the ``spread`` hook — the live internals then skip their
  own (now cheaper) estimates, so the frozen cost is neither double-counted
  nor silently replaced by the optimized one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.base import CoresetConstruction
from repro.core.coreset import Coreset, merge_coresets
from repro.utils.rng import SeedLike, as_generator, random_seed_from
from repro.utils.validation import check_integer, check_points


def seed_compute_spread(
    points: np.ndarray, *, sample_size: int = 2000, seed: SeedLike = 0
) -> float:
    """Seed-revision spread estimate: full pairwise distances on a subsample."""
    points = check_points(points)
    n = points.shape[0]
    if n < 2:
        return 1.0
    generator = as_generator(seed)
    if n > sample_size:
        subset = points[generator.choice(n, size=sample_size, replace=False)]
    else:
        subset = points
    norms = np.einsum("ij,ij->i", subset, subset)
    squared = norms[:, None] + norms[None, :] - 2.0 * (subset @ subset.T)
    np.maximum(squared, 0.0, out=squared)
    positive = squared[squared > 1e-24]
    if positive.size == 0:
        return 1.0
    min_distance = math.sqrt(float(positive.min()))
    span = points.max(axis=0) - points.min(axis=0)
    max_distance = float(np.linalg.norm(span))
    if max_distance <= 0:
        return 1.0
    return max(1.0, max_distance / min_distance)


@dataclass
class SeedMergeReduceTree:
    """Merge-&-reduce without shared stream state (per-compression estimates)."""

    sampler: CoresetConstruction
    coreset_size: int
    seed: SeedLike = None
    levels: Dict[int, Coreset] = field(default_factory=dict)
    reductions: int = 0
    blocks_seen: int = 0

    def __post_init__(self) -> None:
        self.coreset_size = check_integer(self.coreset_size, name="coreset_size")
        self._generator = as_generator(self.seed)

    def _compress(self, points: np.ndarray, weights: np.ndarray) -> Coreset:
        m = min(self.coreset_size, points.shape[0])
        # Two frozen estimates per compression: the seed-era FastCoreset fit
        # estimated the spread of the original points and of the reduced
        # substitute dataset.  The value is handed to the live sampler so
        # its internals do not add a third (optimized) estimate on top.
        estimate = seed_compute_spread(points, seed=self._generator)
        seed_compute_spread(points, seed=self._generator)
        return self.sampler.sample(
            points,
            m,
            weights=weights,
            seed=random_seed_from(self._generator),
            spread=estimate,
        )

    def add_block(self, points: np.ndarray, weights: Optional[np.ndarray] = None) -> None:
        if weights is None:
            weights = np.ones(points.shape[0], dtype=np.float64)
        self.blocks_seen += 1
        current = self._compress(points, weights)
        level = 0
        while level in self.levels:
            partner = self.levels.pop(level)
            merged = merge_coresets([partner, current])
            current = self._compress(merged.points, merged.weights)
            self.reductions += 1
            level += 1
        self.levels[level] = current

    def finalize(self) -> Coreset:
        if not self.levels:
            raise ValueError("no blocks were added to the merge-&-reduce tree")
        survivors = [self.levels[level] for level in sorted(self.levels)]
        combined = survivors[0] if len(survivors) == 1 else merge_coresets(survivors)
        if combined.size > self.coreset_size:
            final = self._compress(combined.points, combined.weights)
            self.reductions += 1
        else:
            final = combined
        final.method = f"seed_merge_reduce[{self.sampler.name}]"
        return final


def seed_stream_coreset(
    points: np.ndarray,
    sampler: CoresetConstruction,
    coreset_size: int,
    *,
    n_blocks: int = 16,
    seed: SeedLike = None,
) -> Coreset:
    """Stream a dataset through the frozen per-block-estimate tree."""
    from repro.streaming.stream import DataStream

    stream = DataStream.with_block_count(points, n_blocks)
    tree = SeedMergeReduceTree(sampler=sampler, coreset_size=coreset_size, seed=seed)
    for block_points, block_weights in stream:
        tree.add_block(block_points, block_weights)
    return tree.finalize()

