"""Weighted Lloyd's algorithm for k-means.

Lloyd's algorithm [49] alternates between assigning every point to its
nearest center and moving every center to the (weighted) mean of its
assigned points.  The paper uses it as the *downstream* clustering task: the
quality of a compression is judged by running k-means++ seeding followed by
Lloyd iterations on the coreset and evaluating the resulting centers on the
full dataset (Table 8).  It therefore runs on coresets only, never inside a
compression.

The loop is the plain one.  Every iteration moves the centers
(:func:`update_centers`, which re-seeds empty clusters), re-assigns every
point with one call of the exact nearest-center primitive
:func:`~repro.geometry.distances.squared_point_to_set_distances`, takes the
weighted cost from the distances it returns, and stops once the relative
improvement drops below the tolerance.  The primitive is exact wherever the
data sits, so a far-from-origin input converges like the same input at the
origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import observability as _obs
from repro.clustering.cost import ClusteringSolution, weighted_total
from repro.clustering.kmeans_pp import kmeans_plus_plus
from repro.geometry.distances import squared_point_to_set_distances
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_integer, check_points, check_weights


@dataclass
class KMeansResult:
    """Outcome of running Lloyd's algorithm.

    Attributes
    ----------
    centers:
        Final centers of shape ``(k, d)``.
    assignment:
        Nearest-center index for every input point.
    cost:
        Weighted k-means cost of the final solution.
    iterations:
        Number of Lloyd iterations actually performed.
    converged:
        ``True`` when the relative cost improvement dropped below the
        tolerance before the iteration cap was reached.
    """

    centers: np.ndarray
    assignment: np.ndarray
    cost: float
    iterations: int
    converged: bool

    def as_solution(self) -> ClusteringSolution:
        """View the result as a generic :class:`ClusteringSolution`."""
        return ClusteringSolution(
            centers=self.centers, assignment=self.assignment, cost=self.cost, z=2
        )


def _reseed_empty_clusters(
    new_centers: np.ndarray,
    empty: np.ndarray,
    points: np.ndarray,
    weights: np.ndarray,
    squared: np.ndarray,
    generator: np.random.Generator,
) -> None:
    """Re-seed empty clusters at far-away points (weighted by current cost).

    With several empty clusters the replacements are drawn *without*
    replacement: drawing the same far point twice would re-seed two centers
    at the same location and immediately re-empty one of them on the next
    assignment (the duplicate loses every argmin tie).
    """
    n = points.shape[0]
    mass = weights * squared
    total = float(mass.sum())
    if total <= 0 or not np.isfinite(total):
        replacement = generator.choice(n, size=empty.size, replace=empty.size > n)
    else:
        distinct = empty.size > 1 and int(np.count_nonzero(mass > 0)) >= empty.size
        if distinct:
            replacement = generator.choice(
                n, size=empty.size, replace=False, p=mass / total
            )
        else:
            replacement = generator.choice(
                n, size=empty.size, replace=True, p=mass / total
            )
    new_centers[empty] = points[replacement]


def update_centers(
    points: np.ndarray,
    weights: np.ndarray,
    assignment: np.ndarray,
    squared: np.ndarray,
    centers: np.ndarray,
    generator: np.random.Generator,
) -> np.ndarray:
    """One M-step: weighted means per cluster, empty clusters re-seeded.

    ``squared`` must be the per-point squared distance to the assigned
    center (the re-seed sampling mass).
    """
    k = centers.shape[0]
    new_centers = centers.copy()
    weighted = weights[:, None] * points
    counts = np.bincount(assignment, weights=weights, minlength=k)
    sums = np.empty_like(centers)
    for coordinate in range(points.shape[1]):
        sums[:, coordinate] = np.bincount(
            assignment, weights=weighted[:, coordinate], minlength=k
        )
    occupied = counts > 0
    new_centers[occupied] = sums[occupied] / counts[occupied, None]
    empty = np.flatnonzero(~occupied)
    if empty.size:
        _reseed_empty_clusters(new_centers, empty, points, weights, squared, generator)
    return new_centers


def lloyd_iteration(
    points: np.ndarray,
    centers: np.ndarray,
    weights: np.ndarray,
    generator: np.random.Generator,
) -> np.ndarray:
    """One Lloyd step: assign to nearest centers, then recompute weighted means.

    Empty clusters are re-seeded at points far from their assigned center
    (see :func:`update_centers`), the standard practical fix that keeps
    exactly ``k`` centers alive.
    """
    squared, assignment = squared_point_to_set_distances(points, centers)
    return update_centers(points, weights, assignment, squared, centers, generator)


def _converged(previous_cost: float, cost: float, tolerance: float) -> bool:
    return previous_cost < np.inf and previous_cost - cost <= tolerance * max(
        previous_cost, 1e-12
    )


def kmeans(
    points: np.ndarray,
    k: int,
    *,
    weights: Optional[np.ndarray] = None,
    max_iterations: int = 50,
    tolerance: float = 1e-4,
    initial_centers: Optional[np.ndarray] = None,
    seed: SeedLike = None,
) -> KMeansResult:
    """Weighted k-means via k-means++ seeding followed by Lloyd iterations.

    Parameters
    ----------
    points:
        Array of shape ``(n, d)`` — typically a coreset when used as the
        paper's downstream task.
    k:
        Number of clusters.
    weights:
        Optional non-negative point weights (coreset weights).
    max_iterations:
        Cap on Lloyd iterations.
    tolerance:
        Relative cost-improvement threshold below which the run is declared
        converged.
    initial_centers:
        Explicit starting centers; when given, seeding is skipped.  Table 8
        of the paper compares samplers under *identical* initialisations,
        which this parameter makes possible.
    seed:
        Randomness for seeding and empty-cluster repair.
    """
    points = check_points(points)
    n = points.shape[0]
    k = check_integer(k, name="k")
    weights = check_weights(weights, n)
    generator = as_generator(seed)
    if initial_centers is not None:
        centers = np.asarray(initial_centers, dtype=np.float64).copy()
        if centers.ndim != 2 or centers.shape[1] != points.shape[1]:
            raise ValueError("initial_centers must be a (k, d) array matching the data dimension")
    else:
        centers = kmeans_plus_plus(points, min(k, n), weights=weights, z=2, seed=generator).centers

    with _obs.span("lloyd.run", n=n, k=int(k)) as run_span:
        squared, assignment = squared_point_to_set_distances(points, centers)
        previous_cost = np.inf
        cost = np.inf
        converged = False
        iterations = 0
        for iterations in range(1, max_iterations + 1):
            with _obs.span("lloyd.iteration", iteration=iterations):
                centers = update_centers(points, weights, assignment, squared, centers, generator)
                squared, assignment = squared_point_to_set_distances(points, centers)
                cost = weighted_total(weights, squared)
                if _converged(previous_cost, cost, tolerance):
                    converged = True
                    break
                previous_cost = cost
        _obs.counter_add("lloyd.iterations", float(iterations))
        run_span.annotate(iterations=iterations, converged=converged)
    return KMeansResult(
        centers=centers,
        assignment=assignment,
        cost=cost,
        iterations=iterations,
        converged=converged,
    )
