"""Spread reduction: Algorithms 2 and 3 of the paper (Section 4).

The quadtree-based ``Fast-kmeans++`` runs in ``~O(nd log Delta)`` time, and
the paper exhibits datasets whose spread ``Delta`` grows linearly with ``n``
(Table 1), so the ``log Delta`` factor is not benign.  Section 4 removes it
in two steps:

1. **Crude-Approx (Algorithm 2)** — compute, in ``~O(nd log log Delta)``
   time, an upper bound ``U`` on the optimal cost that is at most a
   ``poly(n, d, log Delta)`` factor too large.  The bound comes from the
   coarsest quadtree level at which the input occupies at least ``k + 1``
   cells (Lemma 4.1).  The search stops at the last level whose integer
   lattice fits int64, so the bound stays an upper bound at any offset.
2. **Reduce-Spread (Algorithm 3)** — place a random grid of side
   ``r = sqrt(d) * n^2 * U`` (so no optimal cluster is split, Lemma 4.3),
   translate far-apart occupied cells towards each other to cap the diameter
   at ``O(d n^2 U k)`` (a cell's move along an axis depends only on its
   lattice value there, so each coordinate is translated on its own, and a
   coordinate whose cells span fewer than two lattice steps is left as it
   is), and round coordinates to multiples of
   ``g = U / (n^4 d^2 log Delta)`` to lower-bound the minimum distance.  The
   resulting dataset ``P'`` has spread ``poly(n, d, log Delta)`` and any
   reasonable solution on ``P'`` converts back to one on ``P`` with the same
   cost up to an additive ``OPT / n`` (Lemma 4.5 / Theorem 4.6).

Because the reduction only *translates* whole groups of points and *rounds*
coordinates, point indices are preserved: a coreset computed on ``P'`` can be
re-expressed on ``P`` simply by re-reading the sampled indices from the
original array, which is exactly how :class:`repro.core.fast_coreset.FastCoreset`
uses this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import observability as _obs
from repro.geometry.distances import diameter_upper_bound
from repro.geometry.grid import _hash_multipliers, random_grid_shift
from repro.geometry.quadtree import column_extrema, compute_spread
from repro.native import get_kernel, reference_crude_bound_probe
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_integer, check_power


# --------------------------------------------------------------------- Algorithm 2
@dataclass
class CrudeApproximation:
    """Outcome of ``Crude-Approx`` (Algorithm 2).

    Attributes
    ----------
    upper_bound:
        ``U`` — an upper bound on the optimal k-median cost satisfying
        ``OPT <= U <= poly(n, d, log Delta) * OPT`` (Lemma 4.2).  For
        k-means, use :meth:`upper_bound_for` with ``z = 2`` (Lemma 8.1).
    level:
        The coarsest quadtree level at which the input occupies at least
        ``k + 1`` cells.
    cell_side:
        Side length of the grid cells at that level.
    diameter:
        The ``O(nd)`` diameter upper bound used as the root box size.
    calls:
        Number of ``Count-Distinct-Cells`` evaluations performed by the
        binary search (``O(log log Delta)``).
    """

    upper_bound: float
    level: int
    cell_side: float
    diameter: float
    calls: int
    n_points: int
    dimension: int

    def upper_bound_for(self, z: int) -> float:
        """Cost upper bound for exponent ``z`` (Lemma 8.1 squares a k-median bound)."""
        check_power(z)
        if z == 1:
            return self.upper_bound
        return float(self.n_points) * self.upper_bound**2


def crude_cost_upper_bound(
    points: np.ndarray,
    k: int,
    *,
    spread: Optional[float] = None,
    seed: SeedLike = None,
) -> CrudeApproximation:
    """Algorithm 2: a polynomial-factor upper bound on the optimal k-median cost.

    A randomly shifted grid is laid over the data and a binary search over
    the ``O(log Delta)`` dyadic cell sides finds the coarsest level at which
    the input occupies at least ``k + 1`` distinct cells.  By Lemma 4.1 the
    optimal tree-metric cost is sandwiched between ``sqrt(d) * side / 2`` and
    ``n * sqrt(d) * 8 * side`` for that level, and by Lemma 2.2 the Euclidean
    optimum is within another ``O(d log Delta)`` factor.

    Precondition: ``points`` is finite, C-contiguous float64 ``(n, d)``, as
    :func:`~repro.utils.validation.check_points` returns it.
    """
    n, d = points.shape
    k = check_integer(k, name="k")
    generator = as_generator(seed)

    diameter = max(diameter_upper_bound(points), 1e-12)
    shift = random_grid_shift(d, diameter, seed=generator)

    if n <= k:
        # Every point can be its own center: the optimum is zero, any tiny
        # positive bound is valid.
        return CrudeApproximation(
            upper_bound=diameter,
            level=0,
            cell_side=diameter,
            diameter=diameter,
            calls=0,
            n_points=n,
            dimension=d,
        )

    # Dyadic levels: level l uses cells of side diameter * 2^{-l}.  Occupied
    # cell counts are non-decreasing in l because the grids are nested.  A
    # precomputed spread estimate (e.g. from the caller's earlier diagnostic)
    # skips the pairwise-distance subsample.
    if spread is None:
        spread = compute_spread(points, seed=generator)
    max_level = max(1, int(math.ceil(math.log2(float(spread)))) + 2)

    # A probe at level l counts the occupied cells of the lattice
    # floor(((points - shift) / diameter) * 2**l), read straight from the
    # points (the compiled ``crude_bound_probe``, or its numpy oracle
    # ``reference_crude_bound_probe``; the two give the same counts).
    # Level l's lattice fits int64 while max|(x - shift) / diameter| * 2**l
    # < 2**63.  Past that numpy casts to INT64_MIN and the kernel's cast is
    # undefined, so the wrapped lattice could report too few cells and a
    # bound far below the optimum; the search never probes past the last
    # level that fits.  (x - shift) / diameter is monotone in x, so the
    # column extrema give its largest magnitude.
    lowest, highest = column_extrema(points)
    magnitude = max(
        abs(float(((lowest - shift) / diameter).min())),
        abs(float(((highest - shift) / diameter).max())),
    )
    max_level = min(max_level, 63 - math.frexp(magnitude)[1])
    multipliers = _hash_multipliers(d)
    probe = get_kernel("crude_bound_probe")
    tier = "numpy" if probe is None else "native"
    if probe is None:
        probe = reference_crude_bound_probe
    calls = 0

    def occupied(level: int) -> int:
        # The search only compares a count with k + 1, so a probe stops
        # counting there: min(count, k + 1) takes every branch the full
        # count would.
        nonlocal calls
        calls += 1
        return probe(points, shift, diameter, level, multipliers, k + 1)

    def bound_at(level: int, floor: float = 0.0) -> CrudeApproximation:
        # Lemma 4.1's n * sqrt(d) * 8 * side at the level's cell side.
        # Per-kernel dispatch attribution for --trace/--metrics.
        if calls:
            _obs.counter_add(f"crude_bound.probes.{tier}", float(calls))
        side = diameter * (2.0 ** (-level))
        return CrudeApproximation(
            upper_bound=max(n * math.sqrt(d) * 8.0 * side, floor),
            level=level,
            cell_side=side,
            diameter=diameter,
            calls=calls,
            n_points=n,
            dimension=d,
        )

    if max_level < 0:
        # Not even level 0 fits: the level-0 bound holds for every input.
        return bound_at(0)
    # Binary search for the smallest level with at least k + 1 occupied cells.
    low, high = 0, max_level
    if occupied(high) <= k:
        # Even the finest level probed holds at most k cells (many
        # duplicate points, or the int64 cap); each point is within a cell
        # diameter of a centre, so the level's bound still holds.
        return bound_at(high, floor=1e-12)
    while low < high:
        middle = (low + high) // 2
        if occupied(middle) >= k + 1:
            high = middle
        else:
            low = middle + 1
    return bound_at(low)


# --------------------------------------------------------------------- Algorithm 3
@dataclass
class SpreadReductionResult:
    """Outcome of ``Reduce-Spread`` (Algorithm 3).

    Attributes
    ----------
    points:
        The substitute dataset ``P'`` (same shape and row order as the
        input).
    shifts:
        Per-point translation that was subtracted, so
        ``original ≈ points + shifts`` up to the rounding granularity.
    granularity:
        The rounding step ``g`` (0 when rounding was skipped because it
        would be below floating-point resolution).
    cell_side:
        Side ``r`` of the random grid used for the diameter reduction.
    upper_bound:
        The crude cost bound ``U`` driving both steps.
    original_spread / reduced_spread:
        Spread estimates before and after the reduction (diagnostics).
    """

    points: np.ndarray
    shifts: np.ndarray
    granularity: float
    cell_side: float
    upper_bound: float
    original_spread: float
    reduced_spread: float

    def restore(self, reduced_points: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Map points of ``P'`` (given by their row indices) back into ``P``'s frame.

        Because the reduction only translates and rounds, re-adding the
        stored per-point shift recovers the original coordinates up to the
        rounding granularity; for sampled *input* points the caller can
        simply index the original array instead.
        """
        indices = np.asarray(indices, dtype=np.int64)
        return np.asarray(reduced_points, dtype=np.float64) + self.shifts[indices]


def reduce_spread(
    points: np.ndarray,
    k: int,
    *,
    upper_bound: Optional[float] = None,
    spread: Optional[float] = None,
    seed: SeedLike = None,
) -> SpreadReductionResult:
    """Algorithm 3: produce a substitute dataset ``P'`` with polynomial spread.

    Parameters
    ----------
    points:
        Finite, C-contiguous float64 array of shape ``(n, d)``, as
        :func:`~repro.utils.validation.check_points` returns it.
    k:
        Number of clusters (drives the crude upper bound when none is given).
    upper_bound:
        Optional precomputed ``U``; when ``None`` Algorithm 2 is run first.
    spread:
        Optional precomputed spread estimate of ``points``.  When ``None``
        it is estimated once here and shared with Algorithm 2 (the seed
        implementation paid the pairwise-distance subsample twice).  When
        given, the post-reduction spread is not re-estimated from pairwise
        distances either: the rounding step bounds every non-zero distance
        of ``P'`` from below by the granularity ``g``, so the reported
        ``reduced_spread`` is the analytic ``diameter / g`` bound (capped by
        the supplied estimate) — the polynomial collapse of Theorem 4.6 —
        and only its logarithm is consumed downstream.  Streaming callers
        exploit this to run whole streams of compressions off a single
        cached estimate.
    seed:
        Randomness for the grids.

    Notes
    -----
    The reduction is cost-preserving in the sense of Lemma 4.5: with
    probability ``1 - 1/n`` no optimal cluster is split by the grid, every
    pair of occupied cells keeps its adjacency status, and therefore any
    reasonable solution on ``P'`` has the same cost as the corresponding
    solution on ``P`` up to an additive ``OPT / n``.
    """
    n, d = points.shape
    k = check_integer(k, name="k")
    generator = as_generator(seed)

    spread_supplied = spread is not None
    original_spread = float(spread) if spread_supplied else compute_spread(points, seed=generator)

    if upper_bound is None:
        upper_bound = crude_cost_upper_bound(
            points, k, spread=original_spread, seed=generator
        ).upper_bound
    upper_bound = float(upper_bound)
    if upper_bound <= 0:
        upper_bound = 1e-12

    # --- Reduce-Diameter -------------------------------------------------
    # Grid side r = sqrt(d) * n^2 * U guarantees (Lemma 4.3) that points of
    # the same optimal cluster fall into the same cell w.h.p.  Along each
    # axis, every gap of at least 2r between consecutive occupied cell
    # centres is capped at 2r, and a cell moves by the sum of the gaps
    # closed below it.  That sum depends only on the cell's lattice value on
    # that axis, so each coordinate is translated on its own.
    cell_side = math.sqrt(d) * float(n) ** 2 * upper_bound
    shift = random_grid_shift(d, cell_side, seed=generator)
    gap_cap = 2.0 * cell_side

    reduced = points.copy()
    # np.zeros leaves untouched pages unmapped: a translation that moves no
    # row (the common case) costs no resident memory for the shifts.
    shifts = np.zeros(points.shape, dtype=points.dtype)
    # floor((x - s) / r) is monotone in x, so the column extrema give each
    # axis's outermost cell centres, and no gap between centres exceeds
    # theirs.  An axis whose lattice span is below 2 (outermost centres
    # under 2r apart, with the gaps' own rounding) has no gap to close and
    # builds no lattice.  For practical dataset sizes r exceeds the data
    # diameter and every axis is skipped, as the theory predicts (the
    # spread is already polynomial when log Delta is small).
    low, high = column_extrema(points)
    low = (np.floor((low - shift) / cell_side) + 0.5) * cell_side + shift
    high = (np.floor((high - shift) / cell_side) + 0.5) * cell_side + shift
    for coordinate in np.flatnonzero(high - low >= gap_cap):
        lattice = np.floor((points[:, coordinate] - shift[coordinate]) / cell_side)
        values, inverse = np.unique(lattice, return_inverse=True)
        gaps = np.diff((values + 0.5) * cell_side + shift[coordinate])
        # cumsum adds one gap at a time in ascending order (np.sum would
        # pair them up), so each total is the one a walk over the sorted
        # cells accumulates.
        moved = np.cumsum(np.where(gaps >= gap_cap, gaps - gap_cap, 0.0))
        if moved[-1] > 0.0:
            offsets = np.concatenate(([0.0], moved))[inverse]
            reduced[:, coordinate] -= offsets
            shifts[:, coordinate] = offsets

    # --- Reduce-Min-Distance ---------------------------------------------
    log_delta = max(1.0, math.log2(max(original_spread, 2.0)))
    granularity = upper_bound / (float(n) ** 2 * float(d) * log_delta)
    # max(|min|, |max|) is the largest magnitude, and dividing, rounding and
    # multiplying in place are the same IEEE operations as the expression
    # ``np.round(reduced / granularity) * granularity``: no n x d temporary.
    scale = max(abs(float(reduced.min())), abs(float(reduced.max()))) if reduced.size else 0.0
    if granularity > 0 and scale > 0 and granularity > scale * 1e-12:
        np.divide(reduced, granularity, out=reduced)
        np.round(reduced, out=reduced)
        np.multiply(reduced, granularity, out=reduced)
    else:
        # Rounding below floating-point resolution would be a no-op (or a
        # numerical hazard); skipping it only makes P' more accurate.
        granularity = 0.0

    if spread_supplied:
        # No pairwise subsample on this path; instead use the reduction's
        # own guarantee.  Rounding to multiples of ``g`` lower-bounds every
        # non-zero distance by ``g``, so the spread of P' is at most
        # (bounding-box diagonal) / g — the poly(n, d, log Delta) collapse
        # the reduction exists to provide — and never worse than the
        # caller's estimate.  When rounding was skipped the spread was
        # already at floating-point resolution and the estimate stands.
        if granularity > 0 and reduced.size:
            low, high = column_extrema(reduced)
            diagonal = float(np.linalg.norm(high - low))
            reduced_spread = max(1.0, min(original_spread, diagonal / granularity))
        else:
            reduced_spread = original_spread
    else:
        reduced_spread = compute_spread(reduced, seed=generator)
    return SpreadReductionResult(
        points=reduced,
        shifts=shifts,
        granularity=float(granularity),
        cell_side=float(cell_side),
        upper_bound=upper_bound,
        original_spread=float(original_spread),
        reduced_spread=float(reduced_spread),
    )
