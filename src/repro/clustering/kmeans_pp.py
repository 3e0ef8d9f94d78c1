"""k-means++ seeding (D²-sampling) and its bicriteria variant.

Arthur and Vassilvitskii's k-means++ [2] selects centers one at a time, each
with probability proportional to the current squared distance (or plain
distance for k-median) to the already-selected centers.  It yields an
``O(log k)``-approximation in expectation and is the standard initial
solution for sensitivity sampling; the paper's complexity discussion points
out that its ``Theta(nk)`` assignment cost is exactly what Fast-Coresets
avoid via the quadtree.

The bicriteria variant simply draws ``beta * k`` centers, which sharpens the
approximation factor to a constant in the ``(alpha, beta)`` bicriteria sense
used by Fact 3.1.

Execution notes
---------------
The running minimum squared distance to the selected centers is maintained
across rounds (:func:`~repro.geometry.distances.update_nearest_with_new_center`
touches only the newest center), and each D²-draw goes through
:func:`~repro.utils.rng.weighted_index_draw` — a cumulative sum plus one
binary search — instead of ``generator.choice`` over a freshly normalised
length-``n`` probability vector.  The selection law is unchanged; only the
uniform-stream consumption (and therefore fixed-seed outputs relative to the
seed revision) differs.

With the compiled tier enabled (:mod:`repro.native`), each round is one
call of the ``kmeanspp_round`` kernel, bound once per seeding call over
preallocated ``best_squared``/``assignment``/``mass`` buffers: distances to
the new center (read in place as a row of ``points``), the strict-``<``
update, the next draw's mass and its cumsum total in a single pass, with no
per-round ``n x d`` temporaries.  The round also records the total at the
end of every block of 1024 points, and the draw is the round binder's scan
over the same mass buffer: a binary search over those block prefixes, then
a walk through one block.  The uniform variate is consumed under the same
finite-and-positive check as :func:`~repro.utils.rng.weighted_index_draw`,
so centers, assignment and cost are bit-identical to the numpy loop (the
``REPRO_NATIVE=0`` path).

After round 0 the kernel skips every point whose current center lies more
than twice the point's own distance away from the new center: in squares,
``gap >= 4 * (1 + 2**-20) * best``, where ``gap`` is the center-to-center
distance and the ``2**-20`` margin covers rounding (the kernel's comment
gives the full argument, including the underflow and overflow guards).  By
the triangle inequality such a point cannot strictly improve, so the numpy
round would rewrite the same bytes; the kernel only adds its stored mass to
the in-order total.  Centers, assignment and cost stay bit-identical, and
on clustered inputs most point-rounds are skipped.  The counters
``kmeanspp.round.native`` / ``kmeanspp.round.numpy`` record which path
served each call (one count per round), and ``kmeanspp.distance_evals``
counts the point distances actually computed: ``n * k`` on the numpy loop,
less wherever the kernel skipped.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import observability as _obs
from repro.clustering.cost import ClusteringSolution, weighted_total
from repro.geometry.distances import update_nearest_with_new_center
from repro.native import get_kernel
from repro.utils.rng import SeedLike, as_generator, weighted_index_draw
from repro.utils.validation import check_integer, check_points, check_power, check_weights


def _sampling_weights(best_squared: np.ndarray, weights: np.ndarray, z: int) -> np.ndarray:
    """Per-point selection mass for the next D^z-sampling draw."""
    if z == 2:
        mass = best_squared
    else:
        mass = np.sqrt(best_squared)
    return weights * mass


def kmeans_plus_plus(
    points: np.ndarray,
    k: int,
    *,
    weights: Optional[np.ndarray] = None,
    z: int = 2,
    seed: SeedLike = None,
) -> ClusteringSolution:
    """Select ``k`` centers by D²-sampling (D¹ for k-median).

    Parameters
    ----------
    points:
        Array of shape ``(n, d)``.
    k:
        Number of centers to select.  If ``k >= n`` every point becomes a
        center.
    weights:
        Optional point weights; with a weighted input (e.g. when clustering a
        coreset) both the selection probabilities and the reported cost
        respect the weights.
    z:
        1 for k-median, 2 for k-means.
    seed:
        Randomness source.

    Returns
    -------
    ClusteringSolution
        Centers, the nearest-center assignment, and the resulting cost.
    """
    points = check_points(points)
    n = points.shape[0]
    k = check_integer(k, name="k")
    z = check_power(z)
    weights = check_weights(weights, n)
    generator = as_generator(seed)

    if k >= n:
        centers = points.copy()
        assignment = np.arange(n, dtype=np.int64)
        return ClusteringSolution(centers=centers, assignment=assignment, cost=0.0, z=z)

    center_indices = np.empty(k, dtype=np.int64)
    # The first center is drawn proportionally to the input weights, the
    # weighted analogue of k-means++'s uniform first pick.
    first = weighted_index_draw(generator, weights)
    if first < 0:
        first = int(generator.integers(0, n))
    center_indices[0] = first

    round_kernel = get_kernel("kmeanspp_round")
    if round_kernel is not None:
        best_squared = np.empty(n, dtype=np.float64)
        assignment = np.empty(n, dtype=np.int64)
        mass = np.empty(n, dtype=np.float64)
        run_round = round_kernel(
            points, np.ascontiguousarray(weights), best_squared, assignment, mass, z
        )
        total = run_round(first, 0, True)
        for index in range(1, k):
            # The same RNG protocol as weighted_index_draw: a uniform variate
            # only once the total proves finite and positive.
            if np.isfinite(total) and total > 0.0:
                chosen = min(run_round.scan(generator.random() * total), n - 1)
            else:
                chosen = int(generator.integers(0, n))
            center_indices[index] = chosen
            total = run_round(chosen, index, False)
        _obs.counter_add("kmeanspp.round.native", float(k))
        _obs.counter_add("kmeanspp.distance_evals", float(run_round.distance_evals))
    else:
        best_squared, assignment = update_nearest_with_new_center(
            points, points[first], None, None, 0
        )
        for index in range(1, k):
            mass = _sampling_weights(best_squared, weights, z)
            chosen = weighted_index_draw(generator, mass)
            if chosen < 0:
                # All remaining points coincide with existing centers; fall
                # back to uniform selection among the points.
                chosen = int(generator.integers(0, n))
            center_indices[index] = chosen
            best_squared, assignment = update_nearest_with_new_center(
                points, points[chosen], best_squared, assignment, index
            )
        _obs.counter_add("kmeanspp.round.numpy", float(k))
        _obs.counter_add("kmeanspp.distance_evals", float(n * k))

    centers = points[center_indices]
    per_point = best_squared if z == 2 else np.sqrt(best_squared)
    cost = weighted_total(weights, per_point)
    return ClusteringSolution(centers=centers, assignment=assignment, cost=cost, z=z)


def bicriteria_kmeans_pp(
    points: np.ndarray,
    k: int,
    *,
    beta: float = 2.0,
    weights: Optional[np.ndarray] = None,
    z: int = 2,
    seed: SeedLike = None,
) -> ClusteringSolution:
    """D²-sampling with ``ceil(beta * k)`` centers — an ``(O(1), beta)`` bicriteria solution.

    Oversampling by a constant factor converts k-means++'s ``O(log k)``
    expected approximation into a constant-factor one while keeping the
    ``O(n d beta k)`` runtime, which is the classical route to the
    ``~O(nd + nk)`` sensitivity-sampling pipeline the paper uses as its
    baseline.
    """
    if beta < 1.0:
        raise ValueError(f"beta must be at least 1, got {beta}")
    oversampled = int(np.ceil(beta * k))
    return kmeans_plus_plus(points, oversampled, weights=weights, z=z, seed=seed)

