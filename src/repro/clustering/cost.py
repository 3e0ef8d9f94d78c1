"""Weighted k-means / k-median cost functions.

The paper works with the generalised cost

``cost_z(P, C) = sum_{p in P} w_p * dist(p, C)^z``

where ``z = 1`` yields k-median and ``z = 2`` yields k-means (Section 2.1).
Everything downstream — sensitivity scores, coreset distortion, downstream
solution quality — is phrased in terms of this single function, so it lives
here as the one shared implementation.

Every weighted sum ``sum_p w_p * value_p`` in the library goes through
:func:`weighted_total`.  ``np.dot`` would hand it to OpenBLAS, which splits
a long vector across its own helper threads: inside a process-pool worker
those threads take the cores of the other workers, and the split makes the
rounding depend on the host's core count.  ``weighted_total`` is one
single-threaded ``einsum`` reduction, so the sum is the same bytes on every
host and a pool worker keeps to its one core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.geometry.distances import ROW_BLOCK_ELEMENTS, squared_point_to_set_distances
from repro.utils.validation import check_points, check_power, check_weights


@dataclass
class ClusteringSolution:
    """A set of centers together with bookkeeping about how it was obtained.

    Attributes
    ----------
    centers:
        Array of shape ``(k, d)``.
    assignment:
        Optional length-``n`` array mapping each input point to its assigned
        center.  For bicriteria or tree-metric solvers the assignment may
        differ from the true nearest-center assignment; the coreset
        constructions only require it to be an ``O(polylog k)``-approximate
        assignment (Fact 3.1).
    cost:
        The ``cost_z`` value of the assignment on the data it was computed
        for, when known.
    z:
        Cost exponent the solution targets (1 = k-median, 2 = k-means).
    """

    centers: np.ndarray
    assignment: Optional[np.ndarray] = None
    cost: Optional[float] = None
    z: int = 2

    @property
    def k(self) -> int:
        """Number of centers."""
        return int(self.centers.shape[0])


def weighted_total(weights: np.ndarray, values: np.ndarray) -> float:
    """``sum_i weights[i] * values[i]`` on the calling thread, never in BLAS."""
    return float(np.einsum("i,i->", weights, values))


def assign_points(points: np.ndarray, centers: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Assign every point to its nearest center.

    Returns
    -------
    (distances, assignment):
        Plain Euclidean distances to the nearest center and the index of
        that center, both of length ``n``.
    """
    squared, assignment = squared_point_to_set_distances(points, centers)
    return np.sqrt(squared), assignment


def clustering_cost(
    points: np.ndarray,
    centers: np.ndarray,
    *,
    weights: Optional[np.ndarray] = None,
    z: int = 2,
) -> float:
    """Evaluate ``cost_z`` of a center set on a (weighted) point set.

    Parameters
    ----------
    points:
        Array of shape ``(n, d)``.
    centers:
        Array of shape ``(k, d)``.
    weights:
        Optional non-negative point weights (coreset weights); defaults to
        ones.
    z:
        1 for k-median, 2 for k-means.
    """
    points = check_points(points)
    z = check_power(z)
    weights = check_weights(weights, points.shape[0])
    squared, _ = squared_point_to_set_distances(points, centers)
    if z == 2:
        per_point = squared
    else:
        per_point = np.sqrt(squared)
    return weighted_total(weights, per_point)


def assigned_squared_distances(
    points: np.ndarray, centers: np.ndarray, assignment: np.ndarray
) -> np.ndarray:
    """Each point's squared distance to its assigned centre.

    Entry ``i`` is ``einsum("j,j->", p - c, p - c)`` for ``p = points[i]``
    and ``c = centers[assignment[i]]``.  The pass runs over one block of
    :data:`~repro.geometry.distances.ROW_BLOCK_ELEMENTS` entries at a time,
    so it holds no ``(n, d)`` temporary; a row's sum does not depend on the
    rows around it, so the bytes are the whole-array ``einsum``'s.
    ``points`` is C-contiguous float64 ``(n, d)`` and ``assignment`` holds
    one int64 centre index per point.
    """
    n, d = points.shape
    centers = np.asarray(centers, dtype=np.float64)
    squared = np.empty(n, dtype=np.float64)
    rows = max(1, ROW_BLOCK_ELEMENTS // max(1, d))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        deltas = centers[assignment[start:stop]]
        np.subtract(points[start:stop], deltas, out=deltas)
        np.einsum("ij,ij->i", deltas, deltas, out=squared[start:stop])
    return squared


def cost_to_assigned_centers(
    points: np.ndarray,
    centers: np.ndarray,
    assignment: np.ndarray,
    *,
    weights: Optional[np.ndarray] = None,
    z: int = 2,
) -> float:
    """Evaluate ``cost_z`` under a *given* assignment (not nearest-center).

    Bicriteria solvers such as ``Fast-kmeans++`` return an assignment that is
    only approximately optimal; the sensitivity scores of Algorithm 1 are
    computed with respect to that assignment, so the cost must be evaluated
    the same way.

    Precondition: ``points`` is finite, C-contiguous float64 ``(n, d)``, as
    :func:`~repro.utils.validation.check_points` returns it, and
    ``weights`` is ``None`` (unit weights) or as
    :func:`~repro.utils.validation.check_weights` returns it.
    """
    z = check_power(z)
    if weights is None:
        weights = np.ones(points.shape[0], dtype=np.float64)
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape[0] != points.shape[0]:
        raise ValueError("assignment must have one entry per point")
    per_point = assigned_squared_distances(points, centers, assignment)
    if z == 1:
        np.sqrt(per_point, out=per_point)
    return weighted_total(weights, per_point)


def per_point_costs(
    points: np.ndarray,
    centers: np.ndarray,
    *,
    z: int = 2,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-point ``dist(p, C)^z`` and the nearest-center assignment.

    This is the quantity that drives sensitivity sampling: the importance of
    a point is proportional to its share of the total cost plus a term
    inversely proportional to its cluster size (equation (1) of the paper).
    """
    z = check_power(z)
    squared, assignment = squared_point_to_set_distances(points, centers)
    costs = squared if z == 2 else np.sqrt(squared)
    return costs, assignment


def cluster_sizes(assignment: np.ndarray, k: int, weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Total (weighted) mass assigned to each of ``k`` clusters."""
    assignment = np.asarray(assignment, dtype=np.int64)
    weights = check_weights(weights, assignment.shape[0])
    return np.bincount(assignment, weights=weights, minlength=k).astype(np.float64)
