"""Chunked Euclidean distance computations.

The datasets the paper targets have millions of points, so the library never
materialises a full ``n x n`` distance matrix.  Point-to-center-set distances
are computed in row blocks whose size is bounded by
:data:`DEFAULT_CHUNK_ELEMENTS`, keeping peak memory proportional to
``chunk_rows * k`` regardless of ``n``.

:func:`squared_point_to_set_distances` is the one nearest-center primitive
(Lloyd, k-median, BICO and the clustering costs all call it), and it is
exact: its assignment is the nearest center by difference, ties to the
lowest index, and its distances are computed by difference, wherever the
data sits and however close the ties are.  The fast norm expansion only
decides the rows it provably gets right.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.native import get_kernel, reference_quadtree_max_squared_norm

# Upper bound on the number of float64 entries held by one temporary
# ``chunk_rows x k`` block (~64 MB).
DEFAULT_CHUNK_ELEMENTS: int = 8_000_000

#: Entries per row block of the per-point passes that stream over an
#: ``(n, d)`` input (column extrema, assigned-centre distances): 256 KB of
#: float64, so their work memory stays fixed whatever ``n`` is.
ROW_BLOCK_ELEMENTS: int = 1 << 15


def _chunk_rows(n_centers: int, chunk_elements: int) -> int:
    """Number of data rows per block so a block has ~``chunk_elements`` floats."""
    return max(1, int(chunk_elements // max(1, n_centers)))


def squared_point_to_set_distances(
    points: np.ndarray,
    centers: np.ndarray,
    *,
    chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
) -> Tuple[np.ndarray, np.ndarray]:
    """Squared distance from every point to its nearest center, exactly.

    Parameters
    ----------
    points:
        Array of shape ``(n, d)``.
    centers:
        Array of shape ``(k, d)``.
    chunk_elements:
        Memory budget (in float64 entries) for each temporary block.

    Returns
    -------
    (squared_distances, assignment):
        ``assignment[i]`` is the nearest center *by difference*: the lowest
        index ``j`` minimising ``einsum("j,j->", p - c, p - c)`` for ``p =
        points[i]`` and ``c = centers[j]``, and ``squared_distances[i]`` is
        that minimum, computed the same way.

    Notes
    -----
    Both sets are translated by the centers' mean, and the squared
    distances are expanded as ``|p|^2 + |c|^2 - 2 p.c``, one GEMM per block.
    The expansion decides every row whose runner-up trails the winner by
    more than twice its rounding error bound, ``tau * (|p - mu|^2 + max |c
    - mu|^2)``.  Any other row is re-decided by difference among its
    candidate centers, the ones within that margin of the winner.  Data far
    from the origin, where the raw expansion loses every digit of a small
    spread, and near ties both get the exact answer.
    """
    points = np.asarray(points, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[0] == 0:
        raise ValueError(f"centers must be a non-empty 2-d array, got shape {centers.shape}")
    n = points.shape[0]
    k, d = centers.shape
    origin = centers.mean(axis=0)
    shifted = centers - origin
    center_norms = np.einsum("ij,ij->i", shifted, shifted)
    # tau = 4 (d + 4) eps bounds the expansion's relative rounding error:
    # about twice the textbook (2d + 4) eps, which leaves room for the
    # translation's rounding and for the by-difference re-decisions.
    slack = 2.0 * 4.0 * (d + 4) * float(np.finfo(np.float64).eps)
    # ``tiny`` gives the margin an absolute floor for underflowing squares.
    widest = float(center_norms.max()) + float(np.finfo(np.float64).tiny)
    best_sq = np.empty(n, dtype=np.float64)
    assignment = np.empty(n, dtype=np.int64)
    rows = _chunk_rows(k, chunk_elements)
    batch = max(1, chunk_elements // (k * max(d, 1)))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        block = points[start:stop] - origin
        block_norms = np.einsum("ij,ij->i", block, block)
        expanded = block @ shifted.T
        expanded *= -2.0
        expanded += center_norms
        expanded += block_norms[:, None]
        local = np.argmin(expanded, axis=1)
        positions = np.arange(stop - start)
        limits = expanded[positions, local]
        expanded[positions, local] = np.inf
        margin = slack * (block_norms + widest)
        # A NaN gap (an overflowed expansion) is re-decided as well.
        close = np.flatnonzero(~(expanded.min(axis=1) - limits > margin))
        limits += margin
        for first in range(0, close.size, batch):
            chosen = close[first : first + batch]
            local[chosen] = _nearest_by_difference(
                points[start + chosen], centers, expanded[chosen], local[chosen], limits[chosen]
            )
        assignment[start:stop] = local
        delta = points[start:stop] - centers[local]
        best_sq[start:stop] = np.einsum("ij,ij->i", delta, delta)
    return best_sq, assignment


def _nearest_by_difference(
    points: np.ndarray,
    centers: np.ndarray,
    expanded: np.ndarray,
    winners: np.ndarray,
    limits: np.ndarray,
) -> np.ndarray:
    """The nearest center by difference of each row, among its candidates.

    A row's candidates are its expansion winner and every center whose
    expanded distance is at most the row's ``limit`` (the winner's plus the
    margin); every other center is farther by difference as well.  A
    non-finite limit (an overflowed expansion) keeps every center in play.
    Ties go to the lowest index.
    """
    candidate = expanded <= limits[:, None]
    candidate[np.arange(points.shape[0]), winners] = True
    candidate[~np.isfinite(limits)] = True
    rows, columns = np.nonzero(candidate)
    delta = points[rows] - centers[columns]
    squared = np.einsum("ij,ij->i", delta, delta)
    # Sorted by row, then distance, then index: each row's first pair wins.
    order = np.lexsort((columns, squared, rows))
    rows = rows[order]
    first = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    return columns[order[first]]


def point_to_set_distances(
    points: np.ndarray,
    centers: np.ndarray,
    *,
    chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
) -> Tuple[np.ndarray, np.ndarray]:
    """Euclidean distance from every point to its nearest center.

    Same contract as :func:`squared_point_to_set_distances` but returning
    plain (not squared) distances, which is what the k-median cost uses.
    """
    squared, assignment = squared_point_to_set_distances(
        points, centers, chunk_elements=chunk_elements
    )
    return np.sqrt(squared), assignment


def update_nearest_with_new_center(
    points: np.ndarray,
    new_center: np.ndarray,
    best_squared: Optional[np.ndarray],
    assignment: Optional[np.ndarray],
    new_index: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Incrementally update nearest-center bookkeeping after adding a center.

    Used by D²-sampling (k-means++): after each newly selected center only the
    distances to that single center need to be computed, giving the standard
    ``O(ndk)`` total seeding cost instead of ``O(ndk^2)``.

    Parameters
    ----------
    points:
        Array of shape ``(n, d)``.
    new_center:
        The newly added center of shape ``(d,)``.
    best_squared:
        Current squared distances to the nearest center, or ``None`` when the
        first center is being added.
    assignment:
        Current nearest-center indices, or ``None`` for the first center.
    new_index:
        Index the new center will occupy in the final center array.
    """
    points = np.asarray(points, dtype=np.float64)
    delta = points - np.asarray(new_center, dtype=np.float64)[None, :]
    squared_to_new = np.einsum("ij,ij->i", delta, delta)
    if best_squared is None or assignment is None:
        return squared_to_new, np.full(points.shape[0], new_index, dtype=np.int64)
    improved = squared_to_new < best_squared
    best_squared = np.where(improved, squared_to_new, best_squared)
    assignment = np.where(improved, new_index, assignment)
    return best_squared, assignment


def diameter_upper_bound(points: np.ndarray) -> float:
    """Cheap O(nd) upper bound on the diameter of a point set.

    Twice the largest distance from row 0 — exactly the bounding-box step
    the quadtree embedding of Section 2.4 of the paper uses.  The largest
    squared distance is the quadtree fit's (``quadtree_build``'s
    ``max_squared_norm``, or its numpy oracle), read from the points with no
    translated copy; ``sqrt`` is monotone and correctly rounded, so this is
    the largest of the rows' distances.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.shape[0] == 0:
        return 0.0
    kernel = get_kernel("quadtree_build")
    if kernel is not None:
        max_squared = kernel.max_squared_norm(points, points[0])
    else:
        max_squared = reference_quadtree_max_squared_norm(points, points[0])
    return 2.0 * math.sqrt(max_squared)
