"""k-median solvers: Weiszfeld geometric medians and an alternating heuristic.

Algorithm 1 of the paper needs, for every cluster of the bicriteria
solution, the optimal 1-median (the geometric median) or 1-mean of the
cluster (step 4).  The geometric median has no closed form; Weiszfeld's
iteration converges to it and a constant number of iterations already gives
the constant-factor approximation the coreset analysis requires (the paper
notes a 2-approximation obtainable in constant time suffices).

For the downstream k-median task (Figure 4) we provide an alternating
"k-medians" heuristic analogous to Lloyd's algorithm: assign points to the
nearest center, then move every center to the geometric median of its
cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.clustering.cost import ClusteringSolution, weighted_total
from repro.clustering.kmeans_pp import kmeans_plus_plus
from repro.geometry.distances import squared_point_to_set_distances
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_integer, check_points, check_weights


def geometric_median(
    points: np.ndarray,
    *,
    weights: Optional[np.ndarray] = None,
    max_iterations: int = 50,
    tolerance: float = 1e-7,
) -> np.ndarray:
    """Weighted geometric median via Weiszfeld's iteration.

    Parameters
    ----------
    points:
        Finite, C-contiguous float64 array of shape ``(n, d)``, as
        :func:`~repro.utils.validation.check_points` returns it.
    weights:
        ``None`` (unit weights) or non-negative weights as
        :func:`~repro.utils.validation.check_weights` returns them.
    max_iterations:
        Iteration cap; the default is far beyond what is needed for the
        constant-factor guarantee used in Algorithm 1.
    tolerance:
        Stop once the step size falls below ``tolerance`` times the weighted
        mean distance from the points to the estimate.  That scale moves with
        the points, so a run at any offset stops where the same points
        around the origin would.

    Returns
    -------
    numpy.ndarray
        The median estimate of shape ``(d,)``.
    """
    if weights is None:
        weights = np.ones(points.shape[0], dtype=np.float64)
    if points.shape[0] == 1:
        return points[0].copy()
    total = weights.sum()
    if total <= 0:
        return points.mean(axis=0)
    estimate = (weights[:, None] * points).sum(axis=0) / total
    for _ in range(max_iterations):
        deltas = points - estimate[None, :]
        distances = np.sqrt(np.einsum("ij,ij->i", deltas, deltas))
        # Points coinciding with the current estimate get zero distance; the
        # standard Weiszfeld fix is to drop them from the update and check
        # optimality separately.  Clipping achieves the same numerically.
        safe = np.maximum(distances, 1e-12)
        inverse = weights / safe
        denominator = inverse.sum()
        if denominator <= 0:
            break
        updated = (inverse[:, None] * points).sum(axis=0) / denominator
        step = float(np.linalg.norm(updated - estimate))
        estimate = updated
        # Zero only when every point sits on the estimate, and then so is
        # the step.
        scale = weighted_total(weights, distances) / total
        if step <= tolerance * scale:
            break
    return estimate


@dataclass
class KMedianResult:
    """Outcome of the alternating k-median heuristic."""

    centers: np.ndarray
    assignment: np.ndarray
    cost: float
    iterations: int
    converged: bool

    def as_solution(self) -> ClusteringSolution:
        """View the result as a generic :class:`ClusteringSolution`."""
        return ClusteringSolution(
            centers=self.centers, assignment=self.assignment, cost=self.cost, z=1
        )


def kmedian(
    points: np.ndarray,
    k: int,
    *,
    weights: Optional[np.ndarray] = None,
    max_iterations: int = 30,
    tolerance: float = 1e-4,
    initial_centers: Optional[np.ndarray] = None,
    seed: SeedLike = None,
) -> KMedianResult:
    """Alternating k-median: nearest-center assignment + per-cluster Weiszfeld.

    Mirrors :func:`repro.clustering.lloyd.kmeans` but optimises the sum of
    plain (not squared) distances, i.e. ``cost_1``.
    """
    points = check_points(points)
    n = points.shape[0]
    k = check_integer(k, name="k")
    weights = check_weights(weights, n)
    generator = as_generator(seed)

    if initial_centers is not None:
        centers = np.asarray(initial_centers, dtype=np.float64).copy()
    else:
        centers = kmeans_plus_plus(points, min(k, n), weights=weights, z=1, seed=generator).centers

    previous_cost = np.inf
    cost = np.inf
    assignment = np.zeros(n, dtype=np.int64)
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        squared, assignment = squared_point_to_set_distances(points, centers)
        distances = np.sqrt(squared)
        cost = weighted_total(weights, distances)
        for index in range(centers.shape[0]):
            members = np.flatnonzero(assignment == index)
            if members.size == 0:
                # Re-seed an empty cluster at a high-cost point.
                mass = weights * distances
                total = mass.sum()
                if total > 0:
                    centers[index] = points[int(generator.choice(n, p=mass / total))]
                continue
            centers[index] = geometric_median(points[members], weights=weights[members])
        if previous_cost < np.inf and previous_cost - cost <= tolerance * max(previous_cost, 1e-12):
            converged = True
            break
        previous_cost = cost

    squared, assignment = squared_point_to_set_distances(points, centers)
    cost = weighted_total(weights, np.sqrt(squared))
    return KMedianResult(
        centers=centers,
        assignment=assignment,
        cost=cost,
        iterations=iterations,
        converged=converged,
    )


def cluster_representative(
    points: np.ndarray,
    *,
    weights: Optional[np.ndarray] = None,
    z: int = 2,
) -> np.ndarray:
    """Optimal single center of a cluster: mean for z=2, geometric median for z=1.

    This is exactly step 4 of Algorithm 1 ("compute the 1-median (or 1-mean)
    of each cluster").  The inputs are as for :func:`geometric_median`.
    """
    if weights is None:
        weights = np.ones(points.shape[0], dtype=np.float64)
    if z == 2:
        total = weights.sum()
        if total <= 0:
            return points.mean(axis=0)
        return (weights[:, None] * points).sum(axis=0) / total
    return geometric_median(points, weights=weights)
