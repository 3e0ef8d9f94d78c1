"""Fast-Coresets: Algorithm 1 of the paper, with the Section 4 preprocessing.

The construction chains four ingredients, each of which runs in time within
log-factors of reading the data:

1. *(optional)* **Spread reduction** (Algorithms 2-3) replaces the input by a
   substitute dataset ``P'`` whose spread is polynomial, turning the
   ``log Delta`` factor of the quadtree into ``log log Delta``
   (Theorem 4.6).
2. **Johnson–Lindenstrauss embedding** to ``O(log k)`` dimensions, which
   preserves the cost of every k-clustering up to constants [50].
3. **Fast-kmeans++** — quadtree-based D²-sampling that returns *both*
   centers and an ``O(polylog k)``-approximate assignment without ever
   paying the ``Theta(nk)`` assignment cost.
4. **Sensitivity sampling** against that assignment (Fact 3.1), using the
   per-cluster 1-mean / 1-median in the full-dimensional space as the
   cluster representative (step 4 of Algorithm 1).

The coreset points returned are always rows of the *original* input: the
spread reduction only translates and rounds coordinates while preserving row
order, so the sampled indices index the original array directly.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.clustering.cost import ClusteringSolution
from repro.clustering.fast_kmeans_pp import fast_kmeans_plus_plus
from repro.clustering.kmedian import cluster_representative
from repro.core.base import CoresetConstruction
from repro.core.coreset import Coreset
from repro.core.sensitivity import sample_by_scores, sensitivity_scores
from repro.core.spread_reduction import reduce_spread
from repro.geometry.johnson_lindenstrauss import maybe_reduce_dimension
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_integer, check_power


class FastCoreset(CoresetConstruction):
    """Algorithm 1: strong ε-coresets in Õ(nd) time.

    Parameters
    ----------
    k:
        Number of clusters the coreset must support.
    z:
        1 for k-median, 2 for k-means.
    use_spread_reduction:
        Run Algorithms 2-3 before the quadtree seeding.  Disabling it gives
        the ``~O(nd log Delta)`` variant of Corollary 3.2 and is exposed for
        the ablation benchmark.
    dimension_reduction:
        Apply the Johnson–Lindenstrauss projection before ``Fast-kmeans++``
        when the input dimension is large (the paper enables this only for
        MNIST; the threshold below reproduces that behaviour).
    dimension_threshold:
        Inputs with at most this many features skip the projection.
    include_center_correction:
        Append the bicriteria centers with mass-correcting weights (see
        :class:`repro.core.sensitivity.SensitivitySampling`).
    max_levels:
        Depth cap of the quadtree used by ``Fast-kmeans++``.
    seed:
        Default randomness source.
    """

    name = "fast_coreset"

    @property
    def consumes_cost_bound(self) -> bool:  # type: ignore[override]
        """The crude-cost hint only matters when Algorithms 2-3 run."""
        return self.use_spread_reduction

    def __init__(
        self,
        k: int,
        *,
        z: int = 2,
        use_spread_reduction: bool = True,
        dimension_reduction: bool = True,
        dimension_threshold: int = 64,
        include_center_correction: bool = False,
        max_levels: int = 32,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(z=check_power(z), seed=seed)
        self.k = check_integer(k, name="k")
        self.use_spread_reduction = bool(use_spread_reduction)
        self.dimension_reduction = bool(dimension_reduction)
        self.dimension_threshold = int(dimension_threshold)
        self.include_center_correction = bool(include_center_correction)
        self.max_levels = int(max_levels)

    # ------------------------------------------------------------------
    def _bicriteria_solution(
        self,
        working_points: np.ndarray,
        weights: np.ndarray,
        generator: np.random.Generator,
        spread: Optional[float] = None,
    ) -> ClusteringSolution:
        """Steps 2-3 of Algorithm 1: JL embedding + Fast-kmeans++ seeding.

        ``spread`` is an optional precomputed estimate for the working
        points; the spread only enters the seeding through the quadtree
        depth cap ``ceil(log2(spread)) + 2`` and the JL projection preserves
        pairwise distances up to constants, so reusing the pre-projection
        estimate (e.g. the spread-reduction diagnostic) spares every tree
        fit a fresh pairwise-distance subsample.
        """
        if self.dimension_reduction:
            projected = maybe_reduce_dimension(
                working_points, self.k, threshold=self.dimension_threshold, seed=generator
            )
        else:
            projected = working_points
        return fast_kmeans_plus_plus(
            projected,
            self.k,
            z=self.z,
            weights=weights,
            max_levels=self.max_levels,
            spread=spread,
            seed=generator,
        )

    def _cluster_representatives(
        self,
        working_points: np.ndarray,
        weights: np.ndarray,
        assignment: np.ndarray,
        k: int,
    ) -> np.ndarray:
        """Step 4: the 1-mean / 1-median of every cluster in the full space.

        One stable argsort groups the assignment: each cluster's members
        are one run of it, in ascending order, the same indices as
        ``np.flatnonzero(assignment == cluster)`` in O(n log n) instead of
        O(nk).  Empty clusters keep a zero row.
        """
        dimension = working_points.shape[1]
        representatives = np.zeros((k, dimension), dtype=np.float64)
        order = np.argsort(assignment, kind="stable")
        ends = np.cumsum(np.bincount(assignment, minlength=k))
        start = 0
        for cluster, end in enumerate(ends[:k]):
            if end > start:
                members = order[start:end]
                representatives[cluster] = cluster_representative(
                    working_points[members], weights=weights[members], z=self.z
                )
            start = end
        return representatives

    def _sample(
        self,
        points: np.ndarray,
        weights: np.ndarray,
        m: int,
        seed: SeedLike,
        spread: Optional[float] = None,
        cost_bound: Optional[float] = None,
    ) -> Coreset:
        generator = as_generator(seed)

        if self.use_spread_reduction:
            # Caller-supplied ``spread`` / ``cost_bound`` hints (e.g. the
            # merge-&-reduce tree's per-stream caches) let the reduction
            # skip both of its internal estimates and the Algorithm-2
            # binary search; only coarse grid granularities depend on them.
            reduction = reduce_spread(
                points, self.k, upper_bound=cost_bound, spread=spread, seed=generator
            )
            working_points = reduction.points
            # Reuse the reduction's diagnostic spread of P' instead of
            # letting the seeding re-estimate it from scratch.
            working_spread = reduction.reduced_spread
        else:
            reduction = None
            working_points = points
            working_spread = spread

        bicriteria = self._bicriteria_solution(
            working_points, weights, generator, spread=working_spread
        )
        assignment = np.asarray(bicriteria.assignment, dtype=np.int64)
        representatives = self._cluster_representatives(
            working_points, weights, assignment, self.k
        )

        # Steps 5-6: sensitivity scores against the representatives under the
        # Fast-kmeans++ assignment, then importance sampling.
        solution = ClusteringSolution(
            centers=representatives, assignment=assignment, cost=None, z=self.z
        )
        scores = sensitivity_scores(
            working_points, solution, weights=weights, z=self.z, use_solution_assignment=True
        )
        indices, sample_weights = sample_by_scores(
            working_points, weights, scores, m, generator
        )

        # Express the coreset on the original points (spread reduction keeps
        # row order, so the sampled indices are valid in the original array).
        coreset_points = points[indices]
        coreset_weights = sample_weights
        kept_indices: Optional[np.ndarray] = indices

        if self.include_center_correction:
            k = representatives.shape[0]
            true_mass = np.bincount(assignment, weights=weights, minlength=k)
            estimated_mass = np.bincount(
                assignment[indices], weights=sample_weights, minlength=k
            )
            corrections = np.maximum(0.0, true_mass - estimated_mass)
            keep = corrections > 0
            if np.any(keep):
                coreset_points = np.concatenate([coreset_points, representatives[keep]], axis=0)
                coreset_weights = np.concatenate([coreset_weights, corrections[keep]], axis=0)
                kept_indices = None

        metadata = {
            "k": float(self.k),
            "spread_reduction": float(self.use_spread_reduction),
        }
        if reduction is not None:
            metadata["original_spread"] = reduction.original_spread
            metadata["reduced_spread"] = reduction.reduced_spread
        return Coreset(
            points=coreset_points,
            weights=coreset_weights,
            indices=kept_indices,
            method=self.name,
            metadata=metadata,
        )


def fast_coreset(
    points: np.ndarray,
    k: int,
    m: int,
    *,
    z: int = 2,
    weights: Optional[np.ndarray] = None,
    use_spread_reduction: bool = True,
    seed: SeedLike = None,
) -> Coreset:
    """Functional shortcut: build a Fast-Coreset of size ``m`` for ``k`` clusters.

    Parameters
    ----------
    points:
        Array of shape ``(n, d)``.
    k:
        Number of clusters.
    m:
        Coreset size (the paper uses ``m = 40 * k`` as its default).
    z:
        1 for k-median, 2 for k-means.
    weights:
        Optional input weights.
    use_spread_reduction:
        Whether to run the Section 4 preprocessing.
    seed:
        Randomness source.
    """
    construction = FastCoreset(
        k, z=z, use_spread_reduction=use_spread_reduction, seed=seed
    )
    return construction.sample(points, m, weights=weights)
