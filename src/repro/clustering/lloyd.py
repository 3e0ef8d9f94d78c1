"""Weighted Lloyd's algorithm for k-means, with a bounds-pruned engine.

Lloyd's algorithm [49] alternates between assigning every point to its
nearest center and moving every center to the (weighted) mean of its
assigned points.  The paper uses it as the *downstream* clustering task: the
quality of a compression is judged by running k-means++ seeding followed by
Lloyd iterations on the coreset and evaluating the resulting centers on the
full dataset (Table 8).

Pruned refinement
-----------------
The default engine maintains Hamerly-style center-movement bounds instead of
recomputing the full ``(n, k)`` distance block every iteration: each point
carries an exact distance to its assigned center (``upper``) and a lower
bound on the distance to every *other* center (``lower``).  Points with
``upper < lower`` provably keep their assignment and skip the distance
block entirely; only the small suspect set is re-examined.  Because the
E-step is warm-started from the previous assignment, the per-iteration cost
drops from ``O(nkd)`` to ``O(nd)`` plus the suspect block, which is what
makes the Table-8-style evaluation runs cheap (see
``benchmarks/bench_perf_hotpaths.py``, ``lloyd_*`` / ``lloyd_native_*``
rows).

Two refinements tighten the classic bound (each is a strict improvement,
never a relaxation, so the pruning stays provably safe):

* **Epoch-anchored drifts.**  Instead of deflating one running ``lower`` by
  the *largest* per-iteration drift — whose sum over iterations charges
  every point with a mix of different centers' movements — the engine
  records the cumulative drift vector of every iteration and bounds each
  point against ``max_j (C_now[j] - C_epoch[j])``, the largest *single
  center's* total movement since that point's bounds were last measured
  (its epoch).  A maximum of sums is at most the sum of maxima, and on
  converging runs — where the identity of the biggest mover changes every
  iteration — it is far smaller, so warm points stay pruned for many
  iterations instead of being eroded a little every step.
* **Elkan-style runner-up tracking.**  The suspect kernel
  (:func:`_nearest_three`) extracts the nearest, second and third center
  distances plus the *identity* of the runner-up in one sweep of each
  ``(block, k)`` distance tile (the seed's kernel scanned the tile twice
  for two values).  The lower bound then splits: the runner-up center is
  bounded by its own cumulative drift, every other center by the *third*
  distance deflated by the largest drift outside the assigned/runner-up
  pair — so one fast-moving runner-up cannot spoil the much larger margin
  the third distance usually provides, and vice versa.

Exact equivalence
-----------------
Pruning only ever *skips* work whose outcome is provably unchanged, so the
pruned engine produces bit-identical assignments, centers, costs, iteration
counts, and random streams to the naive full-recompute loop (available as
``algorithm="naive"`` and frozen in :mod:`repro.reference.naive_lloyd`).
Three implementation rules make the equivalence exact rather than merely
mathematical:

* cost and re-seed mass are computed by :func:`assigned_squared_distances`,
  a per-point kernel whose output depends only on ``(points, centers,
  assignment)`` — never on which points were pruned;
* suspect points are re-examined with the same norm-expansion block kernel
  (and chunk policy) as the naive E-step; multi-row GEMM blocks are
  row-stable, and suspect sets are padded to a minimum row count because a
  single-row product routes to a different BLAS kernel;
* the bounds carry a tiny relative safety factor so that ulp-level
  discrepancies between the per-point and blocked kernels can never flip a
  pruning decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro import observability as _obs
from repro.clustering.cost import ClusteringSolution
from repro.clustering.kmeans_pp import kmeans_plus_plus
from repro.geometry.distances import (
    DEFAULT_CHUNK_ELEMENTS,
    _chunk_rows,
    squared_point_to_set_distances,
)
from repro.native import get_kernel
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_integer, check_points, check_weights

#: Relative inflation applied to the Hamerly bounds.  The bounds are valid in
#: exact arithmetic; the safety factor absorbs ulp-level differences between
#: the blocked and per-point distance kernels so a pruning decision can never
#: disagree with the naive argmin.
_BOUND_SAFETY = 1e-12

#: Minimum number of rows handed to the blocked distance kernel.  BLAS routes
#: single-row products through a different (matrix-vector) kernel whose
#: results are not bit-identical to the blocked GEMM; padding tiny suspect
#: sets keeps every recompute on the row-stable path.
_MIN_RECOMPUTE_ROWS = 8

#: Relative margin of the prove-stay filter (phase three).  A suspect keeps
#: its assignment without any k-scan when every candidate center's exact
#: distance exceeds the assigned distance by this relative margin — wide
#: enough to absorb any ulp-level discrepancy between the per-pair and the
#: blocked GEMM kernels (~1e-15 relative), so the decision can never
#: disagree with the authoritative blocked argmin; anything closer falls
#: through to the blocked kernel.
_PROVE_STAY_MARGIN = 1e-9

#: Phase three is skipped when more suspects than this fraction survive
#: phase two (mass phase: most of them genuinely reassign, so per-pair
#: proofs would be wasted work).
_PROVE_STAY_FRACTION = 8

#: Suspect blocks larger than this skip the third-distance extraction in
#: :func:`_nearest_three` (their "others" base falls back to the runner-up
#: distance — a sound relaxation).  Early mass-recompute iterations, where
#: the extra select sweep is most expensive and the bounds are torn down
#: again next iteration anyway, get the seed kernel's exact cost; the third
#: distance is harvested by the warm-phase recomputes where its tighter
#: bound actually pays.  Tuned on the tracked bench workloads: lower limits
#: leak weak bounds into the warm phase and cost more than they save.
_THIRD_DISTANCE_ROW_LIMIT = 16384


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
    recompute_fraction:
        Fraction of point-iterations for which the pruned engine had to fall
        back to the full distance block (1.0 for the naive engine; the first
        assignment is always a full block and is not counted).
    """

    centers: np.ndarray
    assignment: np.ndarray
    cost: float
    iterations: int
    converged: bool
    recompute_fraction: float = 1.0

    def as_solution(self) -> ClusteringSolution:
        """View the result as a generic :class:`ClusteringSolution`."""
        return ClusteringSolution(
            centers=self.centers, assignment=self.assignment, cost=self.cost, z=2
        )


# --------------------------------------------------------------- primitives
def assigned_squared_distances(
    points: np.ndarray, centers: np.ndarray, assignment: np.ndarray
) -> np.ndarray:
    """Exact squared distance from every point to its *assigned* center.

    Computed point-wise (no matrix-matrix product), so the result depends
    only on ``(points, centers, assignment)`` and not on which points a
    caller chose to recompute — the property the naive and pruned engines
    rely on to report bit-identical costs and re-seed masses.
    """
    delta = points - centers[assignment]
    return np.einsum("ij,ij->i", delta, delta)


def _nearest_three(
    points: np.ndarray, centers: np.ndarray, third_limit: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Three nearest squared center distances, runner-up ids, and the argmin.

    One sweep over each ``(block, k)`` distance tile extracts everything the
    pruned engine needs: the exact nearest distance and its index (the
    assignment), the runner-up distance *and identity* (the Elkan-style
    bound anchor), and the third-nearest distance (the bound for every
    center outside the assigned/runner-up pair).  Uses the same norm
    expansion, clamping, and chunk policy as
    :func:`~repro.geometry.distances.squared_point_to_set_distances`, so
    the assignments it produces are bit-identical to the naive E-step's for
    any (multi-row) subset of the points.
    """
    n = points.shape[0]
    k = centers.shape[0]
    center_norms = np.einsum("ij,ij->i", centers, centers)
    best = np.empty(n, dtype=np.float64)
    second = np.empty(n, dtype=np.float64)
    third = np.empty(n, dtype=np.float64)
    assignment = np.empty(n, dtype=np.int64)
    # Blocks beyond the detail limit (mass recomputes, whose bounds are torn
    # down again one iteration later) skip the runner-up identification and
    # the third distance: the runner-up *distance* still comes from one
    # masked min — the seed kernel's exact cost — while the sentinel id
    # ``k`` tells the bound logic to charge the runner-up with the largest
    # drift of any center (the padded column of the drift table).
    want_detail = third_limit is None or n <= third_limit
    want_third = k >= 3 and want_detail
    if not want_third:
        third.fill(np.inf)
    if k >= 2 and want_detail:
        second_ids = np.empty(n, dtype=np.int64)
    else:
        second_ids = np.full(n, k, dtype=np.int64)
    # Shared with squared_point_to_set_distances: the bit-identity contract
    # requires the two E-steps to partition rows into the same GEMM blocks.
    rows = _chunk_rows(k, DEFAULT_CHUNK_ELEMENTS)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        block = points[start:stop]
        block_norms = np.einsum("ij,ij->i", block, block)
        squared = block_norms[:, None] + center_norms[None, :] - 2.0 * (block @ centers.T)
        np.maximum(squared, 0.0, out=squared)
        local = np.argmin(squared, axis=1)
        local_rows = np.arange(stop - start)
        assignment[start:stop] = local
        best[start:stop] = squared[local_rows, local]
        if k >= 2:
            squared[local_rows, local] = np.inf
            if want_detail:
                runner = np.argmin(squared, axis=1)
                second_ids[start:stop] = runner
                second[start:stop] = squared[local_rows, runner]
                if want_third:
                    squared[local_rows, runner] = np.inf
                    third[start:stop] = squared.min(axis=1)
            else:
                second[start:stop] = squared.min(axis=1)
        else:
            second[start:stop] = np.inf
    return best, second, second_ids, third, assignment


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
    weighted: Optional[np.ndarray] = None,
    codes: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One M-step: weighted means per cluster, empty clusters re-seeded.

    ``squared`` must be the per-point squared distance to the assigned
    center (the re-seed sampling mass).  Shared by the naive and pruned
    engines so their center sequences — and their consumption of
    ``generator`` — are identical.  ``weighted`` may carry a precomputed
    ``weights[:, None] * points`` (constant across a refinement) and
    ``codes`` the flattened ``assignment * d + coordinate`` bin codes the
    pruned engine maintains incrementally; both only change how the
    identical per-cluster sums are accumulated.
    """
    k = centers.shape[0]
    d = points.shape[1]
    new_centers = centers.copy()
    if weighted is None:
        weighted = weights[:, None] * points
    sums_kernel = get_kernel("lloyd_update_sums")
    if sums_kernel is not None:
        # One fused native pass: per-cluster weight totals and weighted
        # coordinate sums accumulated in ascending point order — the exact
        # accumulation order of every bincount below, so the results are
        # bit-identical (pinned by the registry's resolution verifier).
        counts, sums = sums_kernel(weighted, weights, assignment, k)
    elif codes is not None:
        counts = np.bincount(assignment, weights=weights, minlength=k)
        # One flat bincount over (cluster, coordinate) codes.  Bins are
        # visited in ascending point order exactly like the per-coordinate
        # bincounts, so the per-cluster partial sums are bit-identical.
        sums = np.bincount(codes.ravel(), weights=weighted.ravel(), minlength=k * d).reshape(
            k, d
        )
    else:
        counts = np.bincount(assignment, weights=weights, minlength=k)
        sums = np.empty_like(centers)
        for coordinate in range(d):
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


# ------------------------------------------------------------------ engines
def _converged(previous_cost: float, cost: float, tolerance: float) -> bool:
    return previous_cost < np.inf and previous_cost - cost <= tolerance * max(
        previous_cost, 1e-12
    )


def _run_naive(
    points: np.ndarray,
    weights: np.ndarray,
    centers: np.ndarray,
    max_iterations: int,
    tolerance: float,
    generator: np.random.Generator,
) -> KMeansResult:
    """Full-recompute Lloyd loop (one ``(n, k)`` distance block per iteration)."""
    _, assignment = squared_point_to_set_distances(points, centers)
    squared = assigned_squared_distances(points, centers, assignment)
    previous_cost = np.inf
    cost = np.inf
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        with _obs.span("lloyd.iteration", iteration=iterations):
            centers = update_centers(points, weights, assignment, squared, centers, generator)
            _, assignment = squared_point_to_set_distances(points, centers)
            squared = assigned_squared_distances(points, centers, assignment)
            cost = float(np.dot(weights, squared))
            if _converged(previous_cost, cost, tolerance):
                converged = True
                break
            previous_cost = cost
    _obs.counter_add("lloyd.iterations", float(iterations))
    return KMeansResult(
        centers=centers,
        assignment=assignment,
        cost=cost,
        iterations=iterations,
        converged=converged,
        recompute_fraction=1.0,
    )


def _run_pruned(
    points: np.ndarray,
    weights: np.ndarray,
    centers: np.ndarray,
    max_iterations: int,
    tolerance: float,
    generator: np.random.Generator,
) -> KMeansResult:
    """Bounds-pruned Lloyd loop: skip points whose assignment cannot change.

    Invariants maintained for every point ``i`` (in exact arithmetic, with
    the :data:`_BOUND_SAFETY` margin absorbing floating-point slack):

    * ``assignment[i]`` is the current nearest center;
    * ``base_second[i]`` / ``base_third[i]`` are at most the distances to
      the runner-up center ``second_ids[i]`` and to every other non-assigned
      center, measured against the centers of iteration ``epoch[i]``;
    * every center ``j`` has moved at most ``cumulative[t][j] -
      cumulative[epoch[i]][j]`` since then (triangle inequality along its
      trajectory).

    The per-iteration lower bound is therefore ``min(base_second - drift of
    the runner-up itself, base_third - largest drift outside the
    assigned/runner-up pair)``; whenever the exact assigned distance (which
    the cost needs anyway) stays strictly below it, no other center can
    have overtaken the assignment and the ``(n, k)`` block is skipped.
    Working against *cumulative per-center* drifts anchored at each point's
    last recompute — instead of eroding one running bound by the global
    maximum drift every iteration — keeps warm points pruned indefinitely
    once the run starts converging.
    """
    n = points.shape[0]
    k = centers.shape[0]
    best_sq, second_sq, second_ids, third_sq, assignment = _nearest_three(
        points, centers, third_limit=_THIRD_DISTANCE_ROW_LIMIT
    )
    base_second = np.sqrt(second_sq) * (1.0 - _BOUND_SAFETY)
    # Where the third distance was not extracted (oversized block), the
    # runner-up distance still lower-bounds every non-assigned center, so
    # it substitutes as the "others" base; +inf would wrongly leave those
    # centers bounded by the runner-up branch alone.
    base_third = np.where(np.isfinite(third_sq), np.sqrt(third_sq) * (1.0 - _BOUND_SAFETY), base_second)
    epoch = np.zeros(n, dtype=np.int64)
    eroded = base_second.copy()
    cumulative = [np.zeros(k, dtype=np.float64)]
    squared = assigned_squared_distances(points, centers, assignment)
    # Reusable work arrays: suspect gathers, the center gather / delta of
    # the per-point cost kernel, and the constant weighted point matrix.
    gather = np.empty_like(points)
    delta_buffer = np.empty_like(points)
    weighted = weights[:, None] * points
    coordinate_offsets = np.arange(points.shape[1], dtype=np.int64)
    codes = assignment[:, None] * points.shape[1] + coordinate_offsets

    def _refresh_squared(target: np.ndarray) -> np.ndarray:
        """``assigned_squared_distances`` into preallocated buffers."""
        np.take(centers, assignment, axis=0, out=delta_buffer)
        np.subtract(points, delta_buffer, out=delta_buffer)
        return np.einsum("ij,ij->i", delta_buffer, delta_buffer, out=target)

    # Compiled-tier kernels (None in fallback mode — the inline numpy
    # passes below then run unchanged).  Every kernel is pinned
    # bit-identical to its numpy counterpart at registry resolution, so the
    # centers/assignment/cost/iteration trajectory is the same in both
    # modes; only the internal bound bookkeeping of directly reassigned
    # points (and with it ``recompute_fraction``) may differ.
    refresh_kernel = get_kernel("lloyd_refresh_bounds")
    candidate_kernel = get_kernel("lloyd_candidate_eval")

    previous_cost = np.inf
    cost = np.inf
    converged = False
    iterations = 0
    recomputed = 0
    for iterations in range(1, max_iterations + 1):
        with _obs.span("lloyd.iteration", iteration=iterations) as iteration_span:
            new_centers = update_centers(
                points,
                weights,
                assignment,
                squared,
                centers,
                generator,
                weighted=weighted,
                codes=codes,
            )
            movement = new_centers - centers
            drift = np.sqrt(np.einsum("ij,ij->i", movement, movement))
            centers = new_centers
            cumulative.append(cumulative[-1] + drift)
            current = cumulative[-1]

            # Phase one: the seed engine's O(n) in-place erosion by the largest
            # per-iteration drift — a sound relaxation of the epoch bound below
            # (a sum of per-iteration maxima dominates every center's own
            # cumulative drift).  Survivors are re-examined against the exact
            # epoch-anchored bound, which is also written back here, re-arming
            # the eroded bound so cleared points do not fail phase one forever.
            decrement = float(drift.max()) * (1.0 + _BOUND_SAFETY) if drift.size else 0.0
            center_norms = None  # lazily materialised for the candidate kernel
            if refresh_kernel is not None:
                # Fused native pass: refresh the assigned distances (einsum
                # accumulation order and all), rebuild the upper bounds, erode,
                # and emit the phase-one survivors in one sweep over the points.
                upper, maybe = refresh_kernel(
                    points, centers, assignment, decrement, 1.0 + _BOUND_SAFETY, squared, eroded
                )
            else:
                squared = _refresh_squared(squared)
                upper = np.sqrt(squared) * (1.0 + _BOUND_SAFETY)
                if drift.size:
                    eroded -= decrement
                maybe = np.flatnonzero(upper >= eroded)
            suspects = maybe
            _obs.counter_add("lloyd.phase1_survivors", float(maybe.size))
            if maybe.size and k >= 2:
                # Per-epoch drift tables, materialised only for epochs a phase
                # one survivor still carries (at most one per past iteration).
                epoch_m = epoch[maybe]
                epoch_counts = np.bincount(epoch_m, minlength=len(cumulative))
                present = np.flatnonzero(epoch_counts)
                deltas = (current[None, :] - np.stack([cumulative[e] for e in present])) * (
                    1.0 + _BOUND_SAFETY
                )
                # Column ``k`` holds each epoch's largest drift: the sentinel
                # runner-up id of mass-recomputed points lands here, charging
                # their unknown runner-up with the worst case.
                deltas = np.concatenate([deltas, deltas[:, :k].max(axis=1, keepdims=True)], axis=1)
                position = np.empty(len(cumulative), dtype=np.int64)
                position[present] = np.arange(present.size)
                rows_m = position[epoch_m]
                lower = base_second[maybe] - deltas[rows_m, second_ids[maybe]]
                if k >= 3:
                    # Largest cumulative drift outside the assigned/runner-up
                    # pair: take the per-epoch top mover unless it is one of
                    # the excluded centers, falling through to the second and
                    # third movers.
                    real = deltas[:, :k]
                    candidates = np.argpartition(real, k - 3, axis=1)[:, -3:]
                    values = np.take_along_axis(real, candidates, axis=1)
                    rank = np.argsort(values, axis=1)  # ascending within the top 3
                    ordered = np.take_along_axis(candidates, rank, axis=1)
                    sorted_values = np.take_along_axis(values, rank, axis=1)
                    j1, j2 = ordered[:, 2], ordered[:, 1]
                    v1, v2, v3 = sorted_values[:, 2], sorted_values[:, 1], sorted_values[:, 0]
                    m_j1, m_j2 = j1[rows_m], j2[rows_m]
                    m_assignment = assignment[maybe]
                    m_second = second_ids[maybe]
                    excluded1 = (m_j1 == m_assignment) | (m_j1 == m_second)
                    excluded2 = (m_j2 == m_assignment) | (m_j2 == m_second)
                    other_drift = np.where(
                        excluded1,
                        np.where(excluded2, v3[rows_m], v2[rows_m]),
                        v1[rows_m],
                    )
                    np.minimum(lower, base_third[maybe] - other_drift, out=lower)
                eroded[maybe] = lower
                suspects = maybe[upper[maybe] >= lower]
                if 0 < suspects.size <= max(_MIN_RECOMPUTE_ROWS, n // _PROVE_STAY_FRACTION):
                    # Phase three: prove most survivors keep their assignment by
                    # checking the exact distance to their (usually one or two)
                    # candidate centers — the only centers whose per-center
                    # bound dips below the assigned distance.  Points that
                    # might actually change (or sit within the floating-point
                    # margin) still go through the authoritative blocked
                    # kernel, so bit-identity is untouched.
                    rows_s = position[epoch[suspects]]
                    bounds = base_third[suspects][:, None] - deltas[rows_s, :k]
                    s_ids = second_ids[suspects]
                    surv_rows = np.arange(suspects.size)
                    real_s = s_ids < k
                    if np.any(real_s):
                        tightened = base_second[suspects] - deltas[rows_s, s_ids]
                        bounds[surv_rows[real_s], s_ids[real_s]] = tightened[real_s]
                    if candidate_kernel is not None:
                        # Native pass: evaluates every (suspect, candidate)
                        # pair with the engine's exact einsum accumulation and
                        # classifies each suspect — cleared (the numpy pass's
                        # "stays" set, bit for bit), directly reassigned (the
                        # runner-up gap clears an absolute-scale guard so the
                        # blocked argmin must agree), or ambiguous.  ``None``
                        # is the same too-many-pairs bail as below: every
                        # suspect falls through to the blocked kernel.
                        if center_norms is None:
                            center_norms = np.einsum("ij,ij->i", centers, centers)
                        outcome = candidate_kernel(
                            points,
                            centers,
                            center_norms,
                            suspects,
                            np.ascontiguousarray(bounds),
                            upper[suspects],
                            squared,
                            assignment,
                            _PROVE_STAY_MARGIN,
                        )
                        if outcome is not None:
                            result, runner_sq = outcome
                            ambiguous = result == -1
                            moved = result != assignment[suspects]
                            moved &= ~ambiguous
                            if np.any(moved):
                                # Direct reassignment without the blocked
                                # k-scan.  The evaluated runner-up distance
                                # lower-bounds every non-assigned center (the
                                # unevaluated ones sit above ``upper``), so it
                                # rebuilds a sound — if slightly loose — bound
                                # state; the sentinel runner-up id charges the
                                # worst per-epoch drift, exactly like a mass
                                # recompute.
                                rows = suspects[moved]
                                targets = result[moved]
                                assignment[rows] = targets
                                codes[rows] = (
                                    targets[:, None] * points.shape[1] + coordinate_offsets
                                )
                                second_ids[rows] = k
                                floor = np.sqrt(runner_sq[moved]) * (1.0 - _BOUND_SAFETY)
                                base_second[rows] = floor
                                base_third[rows] = floor
                                eroded[rows] = floor
                                epoch[rows] = iterations
                                squared[rows] = assigned_squared_distances(
                                    points[rows], centers, targets
                                )
                                recomputed += rows.size
                            suspects = suspects[ambiguous]
                    else:
                        candidate = bounds <= upper[suspects][:, None]
                        candidate[surv_rows, assignment[suspects]] = False
                        pair_row, pair_center = np.nonzero(candidate)
                        if pair_row.size > 4 * suspects.size:
                            # Bounds too weak to localise the threat (many
                            # candidate centers per suspect): the blocked kernel
                            # is cheaper than evaluating every pair.
                            pass
                        elif pair_row.size:
                            pair_points = points[suspects[pair_row]]
                            pair_delta = pair_points - centers[pair_center]
                            pair_squared = np.einsum("ij,ij->i", pair_delta, pair_delta)
                            beaten = pair_squared <= squared[suspects[pair_row]] * (
                                1.0 + _PROVE_STAY_MARGIN
                            )
                            stays = np.ones(suspects.size, dtype=bool)
                            stays[pair_row[beaten]] = False
                            suspects = suspects[~stays]
                        else:
                            suspects = suspects[:0]
            iteration_span.annotate(suspects=int(suspects.size))
            if suspects.size:
                recompute = suspects
                if recompute.size < min(n, _MIN_RECOMPUTE_ROWS):
                    # Pad tiny suspect sets onto the row-stable GEMM path; the
                    # recomputed argmin is authoritative, so extra rows are safe.
                    recompute = np.unique(
                        np.concatenate([suspects, np.arange(min(n, _MIN_RECOMPUTE_ROWS))])
                    )
                if recompute.size > n // 2:
                    # Mass recompute: widening to every point costs less than
                    # gathering most of them (and the extra rows are safe — the
                    # recomputed argmin is authoritative either way).
                    recompute = np.arange(n)
                    block = points
                else:
                    block = np.take(points, recompute, axis=0, out=gather[: recompute.size])
                r_best, r_second, r_sids, r_third, r_assignment = _nearest_three(
                    block, centers, third_limit=_THIRD_DISTANCE_ROW_LIMIT
                )
                assignment[recompute] = r_assignment
                codes[recompute] = r_assignment[:, None] * points.shape[1] + coordinate_offsets
                second_ids[recompute] = r_sids
                new_second = np.sqrt(r_second) * (1.0 - _BOUND_SAFETY)
                base_second[recompute] = new_second
                eroded[recompute] = new_second
                base_third[recompute] = np.where(
                    np.isfinite(r_third), np.sqrt(r_third) * (1.0 - _BOUND_SAFETY), new_second
                )
                epoch[recompute] = iterations
                # Per-point kernel rows are bit-stable under subsetting, so only
                # the re-assigned rows of the cost basis need refreshing.
                squared[recompute] = assigned_squared_distances(
                    block, centers, assignment[recompute]
                )
                recomputed += recompute.size
            cost = float(np.dot(weights, squared))
            if _converged(previous_cost, cost, tolerance):
                converged = True
                break
            previous_cost = cost
    _obs.counter_add("lloyd.iterations", float(iterations))
    _obs.counter_add("lloyd.recomputed_rows", float(recomputed))
    fraction = recomputed / float(n * iterations) if iterations else 0.0
    return KMeansResult(
        centers=centers,
        assignment=assignment,
        cost=cost,
        iterations=iterations,
        converged=converged,
        recompute_fraction=fraction,
    )


_ENGINES = {"pruned": _run_pruned, "naive": _run_naive}


def kmeans(
    points: np.ndarray,
    k: int,
    *,
    weights: Optional[np.ndarray] = None,
    max_iterations: int = 50,
    tolerance: float = 1e-4,
    initial_centers: Optional[np.ndarray] = None,
    algorithm: str = "pruned",
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
    algorithm:
        ``"pruned"`` (default) for the Hamerly-bounded engine, ``"naive"``
        for the full-recompute loop.  Both produce bit-identical results
        (see the module docstring); the naive engine is kept for the
        equivalence tests and the perf harness.
    seed:
        Randomness for seeding and empty-cluster repair.
    """
    points = check_points(points)
    n = points.shape[0]
    k = check_integer(k, name="k")
    weights = check_weights(weights, n)
    generator = as_generator(seed)
    if algorithm not in _ENGINES:
        raise ValueError(
            f"algorithm must be one of {sorted(_ENGINES)}, got {algorithm!r}"
        )

    if initial_centers is not None:
        centers = np.asarray(initial_centers, dtype=np.float64).copy()
        if centers.ndim != 2 or centers.shape[1] != points.shape[1]:
            raise ValueError("initial_centers must be a (k, d) array matching the data dimension")
    else:
        centers = kmeans_plus_plus(points, min(k, n), weights=weights, z=2, seed=generator).centers

    with _obs.span("lloyd.run", algorithm=algorithm, n=n, k=int(k)) as run_span:
        result = _ENGINES[algorithm](
            points, weights, centers, max_iterations, tolerance, generator
        )
        run_span.annotate(
            iterations=result.iterations,
            converged=bool(result.converged),
            recompute_fraction=float(result.recompute_fraction),
        )
    return result
