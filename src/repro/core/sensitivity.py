"""Sensitivity (importance) sampling and its lighter-weight relatives.

The family is parameterised by the number ``j`` of centers in the candidate
solution the importance scores are computed against (Section 5.2 of the
paper):

* ``j = 1`` — **lightweight coresets** [6]: scores w.r.t. the dataset mean,
  ``O(nd)`` time, but only an additive-error guarantee.
* ``1 < j < k`` — **welterweight coresets**: the paper's interpolation
  between uniform and full sensitivity sampling (default ``j = log k``).
* ``j = k`` — **standard sensitivity sampling** [37, 47]: the recommended
  coreset construction, ``~O(nd + nk)`` time because of the k-means++
  solution it needs.

Given an ``alpha``-approximate solution ``C`` with clusters ``C_p``, the
importance of a point is (equation (1) of the paper)

``sigma(p) = cost(p, C_p) / cost(C_p, C) + 1 / |C_p|``

and ``m`` points are drawn proportionally to ``sigma``, each receiving weight
``sum(sigma) / (m * sigma(p))`` so the cost estimator is unbiased.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.clustering.cost import (
    ClusteringSolution,
    assigned_squared_distances,
    per_point_costs,
    weighted_total,
)
from repro.clustering.kmeans_pp import kmeans_plus_plus
from repro.core.base import CoresetConstruction
from repro.core.coreset import Coreset
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_integer, check_power


# --------------------------------------------------------------------------- scores
def sensitivity_scores(
    points: np.ndarray,
    solution: ClusteringSolution,
    *,
    weights: Optional[np.ndarray] = None,
    z: int = 2,
    use_solution_assignment: bool = True,
) -> np.ndarray:
    """Per-unit-mass importance scores of equation (1).

    Parameters
    ----------
    points:
        Finite, C-contiguous float64 array of shape ``(n, d)``, as
        :func:`~repro.utils.validation.check_points` returns it.
    solution:
        The candidate solution ``C``.  When it carries an assignment (for
        example the tree-metric assignment of ``Fast-kmeans++``) and
        ``use_solution_assignment`` is true, scores are computed against that
        assignment, exactly as Algorithm 1 requires; otherwise the
        nearest-center assignment is used.
    weights:
        ``None`` (unit weights) or input weights as
        :meth:`~repro.core.base.CoresetConstruction.sample` checked them;
        cluster sizes and cluster costs become weighted totals so the scores
        remain correct when re-compressing an existing coreset.
    z:
        1 for k-median, 2 for k-means.
    use_solution_assignment:
        See ``solution``.

    Returns
    -------
    numpy.ndarray
        Length-``n`` array of non-negative scores.  Multiply by the input
        weights to obtain the sampling mass.
    """
    z = check_power(z)
    if weights is None:
        weights = np.ones(points.shape[0], dtype=np.float64)

    centers = np.asarray(solution.centers, dtype=np.float64)
    if use_solution_assignment and solution.assignment is not None:
        assignment = np.asarray(solution.assignment, dtype=np.int64)
        point_costs = assigned_squared_distances(points, centers, assignment)
        if z == 1:
            np.sqrt(point_costs, out=point_costs)
    else:
        point_costs, assignment = per_point_costs(points, centers, z=z)

    k = centers.shape[0]
    cluster_cost = np.bincount(assignment, weights=weights * point_costs, minlength=k)
    cluster_mass = np.bincount(assignment, weights=weights, minlength=k)
    # Guard against empty or zero-cost clusters: the cost ratio of their
    # points is zero, so only the 1/|C_p| term contributes.
    safe_cost = np.where(cluster_cost > 0, cluster_cost, 1.0)
    safe_mass = np.where(cluster_mass > 0, cluster_mass, 1.0)
    # The cost share overwrites the per-point costs, which are not needed
    # after it: one fewer length-n temporary, the same operations.
    scores = np.divide(point_costs, safe_cost[assignment], out=point_costs)
    scores += 1.0 / safe_mass[assignment]
    return scores


def sample_by_scores(
    points: np.ndarray,
    weights: np.ndarray,
    scores: np.ndarray,
    m: int,
    generator: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw ``m`` indices proportionally to ``weights * scores`` with replacement.

    Returns the selected indices and their coreset weights
    ``total_mass / (m * scores)``, which make the cost estimator unbiased
    (Section 2.1 of the paper).
    """
    mass = weights * scores
    total = mass.sum()
    if total <= 0:
        # Degenerate input (all scores zero): fall back to uniform sampling.
        indices = generator.choice(points.shape[0], size=m, replace=True)
        sample_weights = np.full(m, weights.sum() / m)
        return indices.astype(np.int64), sample_weights
    probabilities = mass / total
    indices = generator.choice(points.shape[0], size=m, replace=True, p=probabilities)
    # A score reaches about 2 / weight, so with weights near the bottom of
    # the float64 range m * score can overflow and zero a draw's weight;
    # those draws divide in the other order.
    with np.errstate(over="ignore"):
        denominators = m * scores[indices]
    sample_weights = total / denominators
    overflowed = np.isinf(denominators)
    if np.any(overflowed):
        sample_weights[overflowed] = total / m / scores[indices[overflowed]]
    return indices.astype(np.int64), sample_weights


# ----------------------------------------------------------------- constructions
class SensitivitySampling(CoresetConstruction):
    """Standard sensitivity sampling against a ``j``-center candidate solution.

    Parameters
    ----------
    k:
        Number of clusters the coreset is intended for (used as the default
        for ``j`` and recorded for bookkeeping).
    j:
        Number of centers in the candidate solution; ``None`` means ``j = k``
        (standard sensitivity sampling).
    z:
        1 for k-median, 2 for k-means.
    include_center_correction:
        When true, the candidate solution's centers are appended to the
        coreset with corrective weights ``max(0, |C_i| - |hat C_i|)`` so each
        cluster's total mass is preserved — the practical reading of the
        weight-correction term in the output line of Algorithm 1.  Exposed
        primarily for the ablation benchmark.
    seed:
        Default randomness source.
    """

    name = "sensitivity"

    def __init__(
        self,
        k: int,
        *,
        j: Optional[int] = None,
        z: int = 2,
        include_center_correction: bool = False,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(z=z, seed=seed)
        self.k = check_integer(k, name="k")
        self.j = self.k if j is None else check_integer(j, name="j")
        self.include_center_correction = bool(include_center_correction)

    # ------------------------------------------------------------------
    def candidate_solution(
        self,
        points: np.ndarray,
        weights: np.ndarray,
        generator: np.random.Generator,
    ) -> ClusteringSolution:
        """Compute the ``j``-center candidate solution the scores are based on."""
        return kmeans_plus_plus(points, self.j, weights=weights, z=self.z, seed=generator)

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
        solution = self.candidate_solution(points, weights, generator)
        scores = sensitivity_scores(points, solution, weights=weights, z=self.z)
        indices, sample_weights = sample_by_scores(points, weights, scores, m, generator)
        coreset_points = points[indices]
        coreset_weights = sample_weights

        if self.include_center_correction and solution.assignment is not None:
            correction_points, correction_weights = self._center_correction(
                points, weights, solution, indices, sample_weights
            )
            if correction_points.shape[0]:
                coreset_points = np.concatenate([coreset_points, correction_points], axis=0)
                coreset_weights = np.concatenate([coreset_weights, correction_weights], axis=0)
                indices = None  # corrected coreset contains non-input points

        return Coreset(
            points=coreset_points,
            weights=coreset_weights,
            indices=indices,
            method=self.name,
            metadata={"j": float(self.j), "k": float(self.k)},
        )

    def _center_correction(
        self,
        points: np.ndarray,
        weights: np.ndarray,
        solution: ClusteringSolution,
        sampled_indices: np.ndarray,
        sample_weights: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Corrective center weights ``max(0, |C_i| - |hat C_i|)`` per cluster."""
        assignment = np.asarray(solution.assignment, dtype=np.int64)
        k = solution.centers.shape[0]
        true_mass = np.bincount(assignment, weights=weights, minlength=k)
        estimated_mass = np.bincount(
            assignment[sampled_indices], weights=sample_weights, minlength=k
        )
        corrections = np.maximum(0.0, true_mass - estimated_mass)
        keep = corrections > 0
        return solution.centers[keep], corrections[keep]


class LightweightCoreset(CoresetConstruction):
    """Lightweight coresets [6]: sensitivity sampling against the dataset mean.

    The scores are ``1/|P| + cost(p, mu) / cost(P, mu)`` with ``mu`` the
    (weighted) mean, computable in a single ``O(nd)`` pass — no k-means++
    solution is needed.  The guarantee is correspondingly weaker: an additive
    ``epsilon * cost(P, {mu})`` error, which is why the construction misses
    small clusters near the centre of mass (Figure 3 of the paper).
    """

    name = "lightweight"

    def __init__(self, *, z: int = 2, seed: SeedLike = None) -> None:
        super().__init__(z=z, seed=seed)

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
        total_weight = weights.sum()
        mean = (weights[:, None] * points).sum(axis=0) / total_weight
        deltas = points - mean[None, :]
        squared = np.einsum("ij,ij->i", deltas, deltas)
        point_costs = squared if self.z == 2 else np.sqrt(squared)
        total_cost = weighted_total(weights, point_costs)
        if total_cost <= 0:
            scores = np.full(points.shape[0], 1.0 / total_weight)
        else:
            scores = 0.5 * point_costs / total_cost + 0.5 / total_weight
        indices, sample_weights = sample_by_scores(points, weights, scores, m, generator)
        return Coreset(
            points=points[indices],
            weights=sample_weights,
            indices=indices,
            method=self.name,
            metadata={"j": 1.0},
        )


class WelterweightCoreset(SensitivitySampling):
    """Welterweight coresets: sensitivity sampling against a ``j``-means solution.

    The paper introduces this interpolation to study how good the candidate
    solution must be before importance sampling copes with class imbalance
    (Table 7).  The default ``j = ceil(log2 k)`` matches the paper's default.
    """

    name = "welterweight"

    def __init__(
        self,
        k: int,
        *,
        j: Optional[int] = None,
        z: int = 2,
        seed: SeedLike = None,
    ) -> None:
        if j is None:
            j = max(2, int(math.ceil(math.log2(max(k, 2)))))
        super().__init__(k, j=j, z=z, seed=seed)
