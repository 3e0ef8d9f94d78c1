"""Randomly shifted quadtree embeddings (Section 2.4 of the paper).

A quadtree embedding maps Euclidean points into a hierarchically separated
tree metric.  The input is enclosed in a box of side ``2 * Delta`` that is
shifted by a uniformly random offset; level ``i`` of the tree partitions the
box into cells of side ``2^{-i} * 2 * Delta``, and the edge connecting a cell
to its parent has length ``sqrt(d) * 2^{-i} * 2 * Delta``.  Lemma 2.2 states
that tree distances dominate Euclidean distances and exceed them only by an
``O(d log Delta)`` factor in expectation.

The embedding is the workhorse of two components:

* ``Fast-kmeans++`` (:mod:`repro.clustering.fast_kmeans_pp`) performs its
  D²-style seeding and its point-to-center assignment in the tree metric,
  which is what removes the ``O(nk)`` assignment cost.
* The crude cost upper bound of Algorithm 2
  (:mod:`repro.core.spread_reduction`) searches for the first tree level at
  which the input occupies at least ``k + 1`` cells.

Z-order cell storage
--------------------
A quadtree's cells are nested: every level-``l + 1`` cell lies inside one
level-``l`` cell.  So one permutation of the points serves every level:
``order_`` lists the points in Z-order, and each level stores only its cell
boundaries, ``level_offsets_[l]``, so that the members of level-``l`` cell
``c`` are the contiguous range
``order_[level_offsets_[l][c]:level_offsets_[l][c + 1]]``, which lies inside
its parent cell's range.  ``position_`` inverts ``order_``, so the cell of
a point at a level is a binary search of its position in the level's
offsets.  All three are C-contiguous ``int32`` in both kernel tiers: a tree
stores ``4 * (2n + sum_l (cells_l + 1))`` bytes, against ``4 * (2n + cells
+ 1)`` *per level* for a per-level CSR layout.  On the n = 200k, d = 10
input of the end-to-end benchmark one tree (17 levels) takes 4.3 MB
instead of 29.9 MB.  The index width caps a fit at ``2**31 - 1`` points;
:meth:`QuadtreeEmbedding.fit` rejects larger inputs with ``ValueError``
before it reads them.

Tree distances are served from a precomputed cumulative edge-length table,
making ``distance_from_shared_level`` an O(1) lookup.

How the order is built
----------------------
Each coordinate contributes, per point, a level-0 cell code and one binary
digit per deeper level.  With ``scaled = ((x - origin) + shift) / side_0``
the level-0 lattice value ``floor(scaled)`` is -1, 0 or 1 in every fit
(every coordinate lies within ``delta`` of the origin and the shift in
``[0, delta)``, so ``scaled`` lies in ``[-1/2, 1)`` up to rounding), and
the code is that value plus one, ``(scaled >= 0) + (scaled >= 1)``.  The
level-``l`` digit is the ``l``-th binary digit of ``frac = scaled -
floor(scaled)``: halving the cell side maps a lattice value to ``2 *
lattice + digit``, so a point's level-``l`` cell is its code plus its first
``l`` digits in every coordinate.  Reading the digits of ``frac`` (scaling
by a power of two and truncating, or doubling) is exact in IEEE
arithmetic.  A point an ulp below a cell boundary can get ``frac`` rounded
to exactly 1.0; it reads as all ones, which is where the seed's per-level
floor puts that point at every depth.

Points are ordered by their level-0 code first (the pattern of the codes'
high bits, then of their low bits), then by each level's *digit pattern*
in turn, and last by input index.  A level's pattern is the ``d``-bit word
whose bit ``j`` is coordinate ``j``'s digit, compared as an unsigned
number.  Every level therefore splits each of its parent's ranges stably by
one pattern, and no level sorts all ``n`` points: ranges that are already
singletons stay put.  Construction stops at the depth cap or at the first
level where every cell is a singleton (deeper levels cannot refine the
partition, the same early exit the seed performs).  Cell identifiers are
ranks in this order.

With the compiled tier on and a depth cap of at most 32, the
``quadtree_build`` kernel (:mod:`repro.native`) builds the whole tree: one
pass over the points and the origin (no translated copy) writes the level-0
codes and the left-aligned ``uint32`` digit rows, clamped in float to
``2**cap - 1`` before the cast, and a depth-first refinement splits every
range by each level's pattern.  It also computes the largest squared
distance to the origin in numpy's ``einsum`` order, from which ``delta_``
follows.  Deeper caps and ``REPRO_NATIVE=0`` take the numpy build,
:func:`repro.native.reference_quadtree_build`, which reads the digits by
doubling and refines each level with one ``np.lexsort``.  The two build the
same arrays (the registry verifies the kernel against the numpy build
before routing any fit to it), and the counters ``quadtree.build.native``
and ``quadtree.build.numpy`` record which one served each fit.

Seed-compatibility policy
-------------------------
With ``spread=None`` the fit consumes the random generator in exactly the
seed order (shift draw, then the spread estimate) and reports the same
``depth``, partitions, cell membership, and tree distances as the frozen
snapshot in :mod:`repro.reference.seed_hotpath`; the golden tests in
``tests/test_quadtree_golden.py`` pin this down.  Passing a precomputed
``spread`` skips the per-tree estimate (so multi-tree users pay for it once)
at the cost of a different — but identically distributed — generator stream.

What the layout guarantees: a level's cells are the same partition as the
seed's (points share a cell exactly when their lattice rows agree), and the
depth, tree distances and distance table are identical; only the cell
*labels* differ, ranks in the Z-order instead of ranks of the seed's hash
keys.  ``points_in_cell`` returns a cell's members in ascending input order
(a sorted copy of its range), like the seed.

What is cached where (spread and cost-bound hints)
--------------------------------------------------
:func:`compute_spread` estimates are the per-fit fixed cost this module
*consumes*; two sibling subsystems cache them on behalf of repeated fits:

* :class:`~repro.clustering.fast_kmeans_pp.FastKMeansPlusPlus` computes one
  estimate and passes it to all of its trees via the ``spread`` parameter.
* :class:`~repro.streaming.merge_reduce.MergeReduceTree` keeps one cached
  spread *and* one cached crude cost upper bound (Algorithm 2, served to
  :func:`repro.core.spread_reduction.reduce_spread` through the sampler's
  ``cost_bound`` hint) per stream.  Both caches sit behind the same refresh
  signal — a bounding-box diagonal that grows past a fixed factor (or, in
  a windowed tree, shrinks below its inverse), or a fixed staleness
  interval — and a refresh recomputes both together, so a
  stream pays the pairwise subsample and the dyadic binary search once per
  distribution shift instead of once per compression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, List, Optional

import numpy as np

from repro import observability as _obs
from repro.geometry.distances import ROW_BLOCK_ELEMENTS
from repro.native import (
    get_kernel,
    reference_quadtree_build,
    reference_quadtree_max_squared_norm,
)
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_integer

_EMPTY_INDICES = np.empty(0, dtype=np.int32)

#: The tree's arrays are int32: a fit takes at most this many points.
_MAX_POINTS = int(np.iinfo(np.int32).max)

#: Deepest cap the ``quadtree_build`` kernel serves: its digit rows are
#: ``uint32``.  The default ``max_levels=32`` always fits; deeper caps take
#: the numpy build.
_MAX_KERNEL_LEVELS = 32


def column_extrema(points: np.ndarray) -> tuple:
    """Per-column ``(min, max)`` of a row-major array, one row block at a time.

    ``np.min``/``np.max`` along axis 0 walk the array column-strided, which
    defeats vectorisation for small ``d``.  Folding each block of
    :data:`~repro.geometry.distances.ROW_BLOCK_ELEMENTS` entries onto a
    running block keeps every operand contiguous, with two blocks of work
    memory whatever ``n`` is.  Extrema are exact in any order, so the
    result equals the axis-0 reductions.
    """
    rows = max(1, ROW_BLOCK_ELEMENTS // max(1, points.shape[1]))
    low = points[:rows].copy()
    high = low.copy()
    for start in range(rows, points.shape[0], rows):
        block = points[start : start + rows]
        count = block.shape[0]
        np.minimum(low[:count], block, out=low[:count])
        np.maximum(high[:count], block, out=high[:count])
    return low.min(axis=0), high.max(axis=0)


def compute_spread(
    points: np.ndarray,
    *,
    sample_size: int = 2000,
    block_size: int = 128,
    seed: SeedLike = 0,
) -> float:
    """Estimate the spread ``Delta`` = (max distance) / (min non-zero distance).

    The exact spread needs all pairwise distances, which is quadratic in
    ``n``.  The estimate works on a uniform subsample of at most
    ``sample_size`` points and replaces the maximum distance by the (at most
    2x larger) bounding-box diagonal.  The minimum non-zero distance is
    estimated *blockwise*: the subsample is ordered along a random 1-d
    projection (points that are close in space tend to be close in the
    projection) and pairwise distances are evaluated only inside overlapping
    windows of ``2 * block_size`` consecutive points, so the quadratic term
    shrinks from ``sample_size**2`` to ``~4 * sample_size * block_size``
    entries.  Any pair within ``block_size`` positions of each other shares a
    window, so the window minimum is a tight upper bound on the subsample
    minimum — and the spread only enters the algorithms through its
    logarithm, making the estimate more than accurate enough.

    Precondition: ``points`` is finite, C-contiguous float64 ``(n, d)``, as
    :func:`~repro.utils.validation.check_points` returns it.
    """
    with _obs.span("quadtree.spread_estimate", n=int(points.shape[0])):
        return _compute_spread_impl(points, sample_size, block_size, seed)


def _compute_spread_impl(
    points: np.ndarray, sample_size: int, block_size: int, seed: SeedLike
) -> float:
    n = points.shape[0]
    if n < 2:
        return 1.0
    generator = as_generator(seed)
    if n > sample_size:
        subset = points[generator.choice(n, size=sample_size, replace=False)]
    else:
        subset = points
    s, d = subset.shape
    if s > 2 * block_size:
        direction = generator.normal(size=d)
        order = np.argsort(subset @ direction, kind="stable")
        subset = subset[order]
    # Overlapping windows of 2 * block_size points with stride block_size
    # examine exactly the within-block and adjacent-block pairs; evaluating
    # those directly (one diagonal tile plus one off-diagonal tile per
    # block) covers the identical pair set at half the arithmetic, because
    # the overlap no longer re-computes every interior block against
    # itself.  Entries at or below the noise floor (self-distances,
    # duplicates) are masked to +inf in place, and min() is order-exact, so
    # the estimate matches the window formulation on the same pairs.
    min_squared = np.inf
    n_blocks = (s + block_size - 1) // block_size
    blocks = [subset[i * block_size : (i + 1) * block_size] for i in range(n_blocks)]
    norms = [np.einsum("ij,ij->i", block, block) for block in blocks]
    tile = np.empty((block_size, block_size), dtype=np.float64)

    def _tile_min(i: int, j: int) -> float:
        rows, columns = blocks[i].shape[0], blocks[j].shape[0]
        squared = np.matmul(blocks[i], blocks[j].T, out=tile[:rows, :columns])
        squared *= -2.0
        squared += norms[i][:, None]
        squared += norms[j][None, :]
        np.maximum(squared, 0.0, out=squared)
        return float(np.min(np.where(squared > 1e-24, squared, np.inf)))

    for i in range(n_blocks):
        min_squared = min(min_squared, _tile_min(i, i))
        if i + 1 < n_blocks:
            min_squared = min(min_squared, _tile_min(i, i + 1))
    if not np.isfinite(min_squared):
        return 1.0
    min_distance = math.sqrt(min_squared)
    low, high = column_extrema(points)
    span = high - low
    max_distance = float(np.linalg.norm(span))
    if max_distance <= 0:
        return 1.0
    return max(1.0, max_distance / min_distance)


@dataclass
class QuadtreeEmbedding:
    """A fitted randomly shifted quadtree over a point set.

    Parameters
    ----------
    max_levels:
        Hard cap on the tree depth.  The fitted depth is
        ``min(max_levels, ceil(log2(spread)) + 2)`` and construction stops
        early once every occupied cell contains a single point.
    seed:
        Randomness for the shift.
    spread:
        Optional precomputed spread estimate (see :func:`compute_spread`).
        ``None`` estimates it during :meth:`fit`; passing a value lets
        multi-tree consumers such as
        :class:`~repro.clustering.fast_kmeans_pp.FastKMeansPlusPlus` share
        one estimate across all trees instead of recomputing it per fit.

    Attributes
    ----------
    delta_:
        Half side length of the enclosing box (an upper bound on the largest
        distance from the translated origin).
    order_:
        The points in Z-order (see the module docstring), int32.
    position_:
        ``position_[i]`` is point ``i``'s index in ``order_``, int32.
    level_offsets_:
        ``level_offsets_[l]`` holds the int32 start of every level-``l``
        cell in ``order_``, then ``n``: cell ``c`` is the range
        ``order_[level_offsets_[l][c]:level_offsets_[l][c + 1]]``.
    level_distance_table_:
        ``level_distance_table_[l + 1]`` is the tree distance between two
        points whose deepest shared cell is at level ``l`` (slot 0 holds the
        level ``-1`` root-separated distance).
    """

    max_levels: int = 32
    seed: SeedLike = None
    spread: Optional[float] = None
    delta_: float = field(default=0.0, init=False)
    shift_: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    origin_: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    dimension_: int = field(default=0, init=False)
    n_points_: int = field(default=0, init=False)
    order_: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    position_: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    level_offsets_: List[np.ndarray] = field(default_factory=list, init=False, repr=False)
    level_distance_table_: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    # ------------------------------------------------------------------ fit
    def fit(self, points: np.ndarray) -> "QuadtreeEmbedding":
        """Build the Z-order cell layout for ``points``.

        Precondition: ``points`` is finite, C-contiguous float64 ``(n, d)``,
        as :func:`~repro.utils.validation.check_points` returns it (the
        compiled build reads it in place).  Raises ``ValueError`` for more
        than ``2**31 - 1`` points, which the int32 arrays cannot index.
        """
        with _obs.span("quadtree.fit") as fit_span:
            self._fit_levels(points, fit_span)
        return self

    def _fit_levels(self, points: np.ndarray, fit_span: Any) -> None:
        if points.shape[0] > _MAX_POINTS:
            raise ValueError(
                f"a quadtree indexes its points with int32: at most {_MAX_POINTS} "
                f"points per fit, got {points.shape[0]}"
            )
        self.n_points_, self.dimension_ = points.shape
        self.max_levels = check_integer(self.max_levels, name="max_levels")
        generator = as_generator(self.seed)

        # Translate so an arbitrary input point is the origin, then bound the
        # data inside a box of side 2 * delta (Section 2.4).  sqrt is
        # monotone and exactly rounded, so sqrt(max) == max(sqrt).
        self.origin_ = points[0].copy()
        kernel = get_kernel("quadtree_build")
        if kernel is not None:
            max_squared = kernel.max_squared_norm(points, self.origin_)
        else:
            max_squared = reference_quadtree_max_squared_norm(points, self.origin_)
        self.delta_ = math.sqrt(max_squared)
        if self.delta_ <= 0:
            # All points identical: a single-level tree with one cell.
            self.delta_ = 1.0
        shift_scalar = float(generator.uniform(0.0, self.delta_))
        self.shift_ = np.full(self.dimension_, shift_scalar, dtype=np.float64)

        if self.spread is not None:
            spread = float(self.spread)
        else:
            spread = compute_spread(points, seed=generator)
        depth_cap = min(self.max_levels, max(1, int(math.ceil(math.log2(spread))) + 2))

        arguments = (points, self.origin_, shift_scalar, self.cell_side(0), depth_cap)
        if kernel is not None and depth_cap <= _MAX_KERNEL_LEVELS:
            self.order_, self.position_, self.level_offsets_ = kernel(*arguments)
            _obs.counter_add("quadtree.build.native", 1.0)
        else:
            self.order_, self.position_, self.level_offsets_ = reference_quadtree_build(
                *arguments
            )
            _obs.counter_add("quadtree.build.numpy", 1.0)

        self._build_distance_table()
        _obs.counter_add("quadtree.fits", 1.0)
        _obs.counter_add("quadtree.levels_built", float(self.depth))
        fit_span.annotate(n=self.n_points_, d=self.dimension_, depth=self.depth)

    def _build_distance_table(self) -> None:
        """Precompute ``distance_from_shared_level`` for every level.

        Slot ``l + 1`` holds the distance for shared level ``l``.  Each entry
        accumulates the per-level edge lengths in the same (shallow-to-deep)
        order as the seed implementation so the table is bit-identical to the
        seed's on-demand Python sums.
        """
        depth = self.depth
        table = np.zeros(depth + 1, dtype=np.float64)
        for level in range(-1, depth - 1):
            total = 0.0
            for below in range(level + 1, depth):
                total += self.edge_length(below)
            table[level + 1] = 2.0 * total
        self.level_distance_table_ = table

    # ------------------------------------------------------------- geometry
    @property
    def depth(self) -> int:
        """Number of levels actually built (root level included)."""
        return len(self.level_offsets_)

    def cell_side(self, level: int) -> float:
        """Side length of the level-``level`` grid cells: ``2^{-level} * 2 * delta``."""
        return (2.0 * self.delta_) * (2.0 ** (-level))

    def edge_length(self, level: int) -> float:
        """Length of the tree edge from a level-``level`` cell to its parent."""
        return math.sqrt(self.dimension_) * self.cell_side(level)

    def distance_from_shared_level(self, level: int) -> float:
        """Tree distance between two points whose deepest common cell is at ``level``.

        The path climbs from the leaves up to the shared cell and back down,
        so the distance is twice the sum of edge lengths below ``level`` —
        served as an O(1) lookup into :attr:`level_distance_table_`.  When
        the two points share a leaf cell the tree distance is zero.
        """
        if level >= self.depth - 1:
            return 0.0
        return float(self.level_distance_table_[max(level, -1) + 1])

    def deepest_shared_level(self, first: int, second: int) -> int:
        """Deepest level at which points ``first`` and ``second`` share a cell.

        Level 0 uses cells of side ``2 * delta``; because the shift keeps all
        points within a ``2 * delta`` window the two points may already be
        separated at level 0, in which case ``-1`` is returned and the tree
        distance is the full ``distance_from_shared_level(-1)``.
        """
        shared = -1
        for level in range(self.depth):
            if self.cell_of(first, level) == self.cell_of(second, level):
                shared = level
            else:
                break
        return shared

    def tree_distance(self, first: int, second: int) -> float:
        """Distance between two input points in the embedded tree metric."""
        if first == second:
            return 0.0
        return self.distance_from_shared_level(self.deepest_shared_level(first, second))

    # --------------------------------------------------------------- lookup
    def cell_of(self, point_index: int, level: int) -> int:
        """Identifier of the level-``level`` cell containing a point: its
        rank in the Z-order, found from the point's position."""
        offsets = self.level_offsets_[level]
        return int(np.searchsorted(offsets, self.position_[point_index], side="right")) - 1

    def points_in_cell(self, level: int, cell_id: int) -> np.ndarray:
        """Indices of the points contained in a given cell (empty if unused),
        in ascending order: a sorted copy of the cell's range of ``order_``."""
        offsets = self.level_offsets_[level]
        if cell_id < 0 or cell_id >= offsets.shape[0] - 1:
            return _EMPTY_INDICES
        return np.sort(self.order_[offsets[cell_id] : offsets[cell_id + 1]])

    def occupied_cells(self, level: int) -> int:
        """Number of distinct non-empty cells at ``level``."""
        return self.level_offsets_[level].shape[0] - 1
