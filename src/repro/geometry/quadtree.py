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

CSR cell storage
----------------
Each level stores its occupied cells in a CSR-style layout instead of a
``Dict[int, np.ndarray]``: ``level_order_[l]`` holds all point indices sorted
by their compact level-``l`` cell identifier and ``level_offsets_[l]`` holds
one offset per cell, so the members of cell ``c`` are the contiguous slice
``level_order_[l][level_offsets_[l][c]:level_offsets_[l][c + 1]]``.  Building
the layout costs a single ``argsort`` per level (the seed implementation paid
a second sort plus a Python loop splitting one array per cell), and
``points_in_cell`` becomes two-slice arithmetic with no hashing.

All three level arrays (``level_cell_ids_``, ``level_order_``,
``level_offsets_``) are C-contiguous ``int32`` in both kernel tiers: a level
with ``c`` occupied cells stores ``4 * (2n + c + 1)`` bytes, half the int64
layout, and the Fast-kmeans++ sweep reads the arrays as they are.  On the
n = 200k, d = 10 input of the end-to-end benchmark the three trees of a
``static_fast`` op (17 levels each) hold 89.8 MB instead of 179.6 MB.  The
index width caps a fit at ``2**31 - 1`` points; :meth:`QuadtreeEmbedding.fit`
rejects larger inputs with ``ValueError`` before it reads them.

Tree distances are served from a precomputed cumulative edge-length table,
making ``distance_from_shared_level`` an O(1) lookup.

Incremental compact keys
------------------------
The hash key of a lattice row is linear in the coordinates
(:func:`~repro.geometry.grid.hash_rows` computes ``sum_j lattice[j] *
multiplier[j]`` modulo ``2**64``), and halving the cell side maps the
lattice to ``2 * lattice + bit``; therefore the level-``l + 1`` keys follow
from the level-``l`` keys with one multiply-add per *point* rather than per
coordinate::

    key' = 2 * key + sum_j bit[j] * multiplier[j]      (mod 2**64)

which is exact in (wrapping) integer arithmetic — the derived keys equal
``hash_rows`` of the explicitly doubled lattice bit for bit, so the compact
identifiers (the ranks of the distinct keys) are unchanged.  The per-level
bits themselves are read from a *digit matrix* computed once per fit:
``floor(frac * 2**depth)`` holds, exactly, the first ``depth`` binary digits
of every fractional coordinate (scaling by a power of two and truncating are
both exact in IEEE arithmetic; a fractional part that rounded to exactly 1.0
is clamped to the all-ones digit row, which is the fixed point the iterative
doubling converges to).  For the ``uint32`` digit rows of depth caps up to
32 the clamp to ``2**depth - 1`` happens in float *before* the cast: at
``depth == 32`` the scaled value ``2**32`` would otherwise wrap to 0 and
move the point to the far corner of its level-0 cell at every deeper level.
Together these replace the seed's per-level floor, the doubled integer
lattice, *and* the per-level row hashing with one ``(n, d)`` shift-and-mask
plus one length-``n`` multiply-add per level.  Fits whose depth cap exceeds
62 levels (beyond any realistic spread) fall back to the equivalent
per-level ``frac`` doubling.

With the compiled tier on and a depth cap of at most 32, the
``quadtree_keys`` kernel (:mod:`repro.native`) does all of this in C: one
pass over the origin-translated points writes the level-0 keys and the
clamped, left-aligned digit rows, and each deeper level is one in-place
pass that reads bit ``32 - level`` of every digit and applies the
multiply-add.  It repeats the numpy path's IEEE operations in order, so the
keys — and with them the trees — are bit-identical; the counters
``quadtree.keys.native`` / ``quadtree.keys.numpy`` record which path served
each fit.

Seed-compatibility policy
-------------------------
With ``spread=None`` the fit consumes the random generator in exactly the
seed order (shift draw, then the spread estimate) and reports identical
``depth``, ``cell_of`` labels, cell membership, and tree distances as the
frozen snapshot in :mod:`repro.reference.seed_hotpath`; the golden tests in
``tests/test_quadtree_golden.py`` pin this down.  Passing a precomputed
``spread`` skips the per-tree estimate (so multi-tree users pay for it once)
at the cost of a different — but identically distributed — generator stream.

What ``level_order_`` guarantees: within one cell, point indices appear in
ascending input order (the grouping sort is stable), and cells appear in
ascending compact-identifier order, where identifiers rank the distinct
64-bit hash keys of a level in ascending unsigned order — exactly the
labelling ``np.unique(hash_rows(lattice), return_inverse=True)`` produced in
the seed.  Because the hash re-mixes every level, the *rank* of a cell is
re-drawn at every depth even for cells that can no longer change: a
singleton cell stays a singleton at all deeper levels (its one point has
nobody left to separate from), but its label still moves with the global
key order.  This is why construction keeps ranking all ``n`` keys per level
instead of dropping settled singletons from the sort: any scheme that skips
them (sort the active points only, then merge or binary-search the settled
keys back in) must still place every settled key in the global rank order,
which costs at least as much as the radix argsort it replaces — we measured
``np.searchsorted`` at 1.4-3x the cost of the full stable argsort on this
workload.  The singleton invariant is still exploited where it is free:
construction stops at the first level where every cell is a singleton
(deeper levels cannot refine the partition, the same early exit the seed
performs), and the digit matrix bounds the per-level work for everyone else.

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
  signal — a bounding-box diagonal that grows past the configured factor
  (or, in a windowed tree, shrinks below its inverse), or the staleness
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
from repro.geometry.grid import _hash_multipliers, hash_rows
from repro.native import get_kernel
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_integer, check_points

_EMPTY_INDICES = np.empty(0, dtype=np.int32)

#: The level arrays are int32: a fit takes at most this many points.
_MAX_POINTS = int(np.iinfo(np.int32).max)


def _column_extrema(points: np.ndarray) -> tuple:
    """Per-column (min, max) of a row-major array by contiguous fold-halving.

    ``np.min``/``np.max`` along axis 0 walk the array column-strided, which
    defeats vectorisation for small ``d``; repeatedly folding the top half
    of the rows onto the bottom half keeps every operand contiguous and
    does ``2 n d`` SIMD comparisons total.  Extrema are associativity-exact,
    so the result is bit-identical to the axis-0 reductions.
    """
    if points.shape[0] <= 64:
        return points.min(axis=0), points.max(axis=0)
    low = points
    high = points
    first = True
    while low.shape[0] > 64:
        half = low.shape[0] // 2
        odd_low = low[2 * half :]
        odd_high = high[2 * half :]
        if first:
            low = np.minimum(low[:half], low[half : 2 * half])
            high = np.maximum(points[:half], points[half : 2 * half])
            first = False
        else:
            np.minimum(low[:half], low[half : 2 * half], out=low[:half])
            np.maximum(high[:half], high[half : 2 * half], out=high[:half])
            low = low[:half]
            high = high[:half]
        if odd_low.shape[0]:
            np.minimum(low[:1], odd_low, out=low[:1])
            np.maximum(high[:1], odd_high, out=high[:1])
    return low.min(axis=0), high.max(axis=0)


#: Deepest tree for which the one-shot digit matrix ``floor(frac * 2**depth)``
#: fits an ``int64`` exactly; deeper fits (spread beyond ``2**60``, never hit
#: with the default ``max_levels=32``) take the per-level doubling fallback.
_MAX_DIGIT_LEVELS = 62

#: Digit matrices for trees of at most this depth are held as ``uint32``
#: (half the memory traffic of the per-level bit extraction) and their key
#: increments served from the pattern LUTs below, or by the compiled
#: ``quadtree_keys`` kernel.  The default ``max_levels=32`` always fits.
_MAX_UINT32_DIGIT_LEVELS = 32

#: Per-dimension cache of byte-aligned subset-sum tables for the chunked
#: increment lookup.  ``np.packbits`` turns the per-level bit matrix into
#: one byte per 8 coordinates; entry ``p`` of chunk ``b``'s table holds
#: ``sum_{j in p} multiplier[8 b + j]`` modulo ``2**64``, so summing one
#: table lookup per byte equals the full ``bits . multipliers`` multiply-add
#: bit for bit.
_PATTERN_LUT_CACHE: dict = {}


def _pattern_tables(dimension: int) -> list:
    """Per-byte subset-sum tables for the incremental key update."""
    tables = _PATTERN_LUT_CACHE.get(dimension)
    if tables is None:
        multipliers = _hash_multipliers(dimension).view(np.int64)
        tables = []
        for start in range(0, dimension, 8):
            chunk = multipliers[start : start + 8]
            lut = np.zeros(1, dtype=np.int64)
            for multiplier in chunk:
                with np.errstate(over="ignore"):
                    lut = np.concatenate([lut, lut + multiplier])
            if lut.shape[0] < 256:  # partial final byte: high bits are zero
                lut = np.concatenate([lut] * (256 // lut.shape[0]))
            tables.append(lut)
        _PATTERN_LUT_CACHE[dimension] = tables
    return tables


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
    """
    points = check_points(points)
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
    # One cache-friendly row-major pass for both column extrema (max and min
    # are associativity-exact, so blocking cannot change the result; the
    # strided axis-0 reductions cost ~2x this on wide inputs).
    low, high = _column_extrema(points)
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
    level_cell_ids_:
        ``level_cell_ids_[l]`` is a length-``n`` int32 array giving the
        compact identifier of the level-``l`` cell containing each point.
        Identifiers are consecutive integers ``0 .. occupied_cells(l) - 1``.
    level_order_ / level_offsets_:
        CSR cell storage (see the module docstring): int32 point indices
        sorted by cell identifier plus int32 per-cell offsets into that
        order.
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
    level_cell_ids_: List[np.ndarray] = field(default_factory=list, init=False, repr=False)
    level_order_: List[np.ndarray] = field(default_factory=list, init=False, repr=False)
    level_offsets_: List[np.ndarray] = field(default_factory=list, init=False, repr=False)
    level_distance_table_: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    # ------------------------------------------------------------------ fit
    def fit(self, points: np.ndarray) -> "QuadtreeEmbedding":
        """Build the level-wise CSR cell decomposition for ``points``.

        Raises ``ValueError`` for more than ``2**31 - 1`` points, which the
        int32 level arrays cannot index.
        """
        with _obs.span("quadtree.fit") as fit_span:
            self._fit_levels(points, fit_span)
        return self

    def _fit_levels(self, points: np.ndarray, fit_span: Any) -> None:
        # Before check_points, whose finiteness scan allocates n * d flags.
        shape = getattr(points, "shape", ())
        if len(shape) == 2 and shape[0] > _MAX_POINTS:
            raise ValueError(
                f"a quadtree indexes its points with int32: at most {_MAX_POINTS} "
                f"points per fit, got {shape[0]}"
            )
        points = check_points(points)
        self.n_points_, self.dimension_ = points.shape
        self.max_levels = check_integer(self.max_levels, name="max_levels")
        generator = as_generator(self.seed)

        # Translate so an arbitrary input point is the origin, then bound the
        # data inside a box of side 2 * delta (Section 2.4).
        self.origin_ = points[0].copy()
        translated = points - self.origin_[None, :]
        # sqrt is monotone and exactly rounded, so sqrt(max) == max(sqrt).
        squared_norms = np.einsum("ij,ij->i", translated, translated)
        self.delta_ = float(math.sqrt(squared_norms.max()))
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

        self.level_cell_ids_ = []
        self.level_order_ = []
        self.level_offsets_ = []
        # The compiled grouping kernel keeps per-thread work arrays of its own.
        scratch = None if get_kernel("csr_group") is not None else _csr_scratch(self.n_points_)

        # Level-0 lattice: floor(shifted / side_0).  Deeper levels never
        # materialise a lattice: the hash keys are updated incrementally
        # (``key' = 2 * key + bits . multipliers``, exact modulo 2**64 —
        # see the module docstring) with the per-level bits read from the
        # one-shot digit matrix ``floor(frac * 2**depth_cap)``.  The
        # compiled ``quadtree_keys`` kernel does all of it in place.
        keys_kernel = (
            get_kernel("quadtree_keys") if depth_cap <= _MAX_UINT32_DIGIT_LEVELS else None
        )
        if keys_kernel is not None:
            keys = np.empty(self.n_points_, dtype=np.uint64)
            advance = keys_kernel(
                translated, shift_scalar, self.cell_side(0), depth_cap,
                _hash_multipliers(self.dimension_), keys,
            )
            _obs.counter_add("quadtree.keys.native", 1.0)
        else:
            keys, advance = self._numpy_keys(translated, shift_scalar, depth_cap)
            _obs.counter_add("quadtree.keys.numpy", 1.0)
        for level in range(depth_cap + 1):
            if level > 0:
                advance(level)
            with _obs.span("quadtree.level", level=level) as level_span:
                cell_ids, order, offsets = _csr_group(keys, scratch)
                level_span.annotate(cells=int(offsets.shape[0] - 1))
            self.level_cell_ids_.append(cell_ids)
            self.level_order_.append(order)
            self.level_offsets_.append(offsets)
            if offsets.shape[0] - 1 >= self.n_points_:
                # Every point isolated in its own cell: singletons stay
                # singletons at all deeper levels, so the partition — and
                # with it the tree metric — can no longer change.
                break

        self._build_distance_table()
        _obs.counter_add("quadtree.fits", 1.0)
        _obs.counter_add("quadtree.levels_built", float(len(self.level_cell_ids_)))
        fit_span.annotate(n=self.n_points_, d=self.dimension_, depth=self.depth)

    def _numpy_keys(self, translated: np.ndarray, shift: float, depth_cap: int) -> tuple:
        """The numpy key derivation: ``(level-0 keys, advance)``.

        ``advance(level)`` derives the level's keys from the previous
        level's in place, for levels 1, 2, ... in order — the same contract
        as the ``quadtree_keys`` kernel.  ``translated`` (the
        origin-translated points) is consumed as scratch.
        """
        scaled = translated
        scaled += shift
        scaled /= self.cell_side(0)
        lattice = np.floor(scaled).astype(np.int64)
        keys = hash_rows(lattice)
        increment = np.empty(self.n_points_, dtype=np.int64)
        frac = scaled
        frac -= lattice
        # frac >= 0, so truncation is floor; a fractional part that rounded
        # up to exactly 1.0 reads as the all-ones digit row — the fixed
        # point of 2f - (f >= 1/2).  Shallow trees clamp in float before
        # the cast (2**32 itself would wrap a uint32 to 0), left-align the
        # digits in a uint32 residual so each level's bits are one
        # sign-compare away, and resolve the key increment with one
        # byte-table lookup per 8 coordinates (``np.packbits`` row
        # patterns).
        if depth_cap <= _MAX_UINT32_DIGIT_LEVELS:
            frac *= 2.0**depth_cap
            np.minimum(frac, 2.0**depth_cap - 1, out=frac)
            residual = frac.astype(np.uint32)
            residual <<= np.uint32(32 - depth_cap)  # level-1 bit on top
            tables = _pattern_tables(self.dimension_)
            # Byte-aligned flag rows let packbits run over one flat stream
            # (the per-row path is ~50x slower for narrow inputs); the pad
            # columns stay zero so the final byte patterns are unaffected.
            padded_width = (self.dimension_ + 7) // 8 * 8
            flag_buffer = np.zeros((self.n_points_, padded_width), dtype=bool)
            flag_view = flag_buffer[:, : self.dimension_]

            def level_increment(level: int) -> None:
                np.greater_equal(residual, np.uint32(0x80000000), out=flag_view)
                np.left_shift(residual, np.uint32(1), out=residual)
                packed = np.packbits(flag_buffer.reshape(-1), bitorder="little").reshape(
                    self.n_points_, padded_width // 8
                )
                np.take(tables[0], packed[:, 0], out=increment)
                for byte, lut in enumerate(tables[1:], start=1):
                    np.add(increment, lut[packed[:, byte]], out=increment)

        elif depth_cap <= _MAX_DIGIT_LEVELS:
            multipliers = _hash_multipliers(self.dimension_).view(np.int64)
            digits = (frac * (2.0**depth_cap)).astype(np.int64)
            np.minimum(digits, (np.int64(1) << depth_cap) - 1, out=digits)
            bits = np.empty_like(digits)

            def level_increment(level: int) -> None:
                np.right_shift(digits, np.int64(depth_cap - level), out=bits)
                np.bitwise_and(bits, np.int64(1), out=bits)
                np.matmul(bits, multipliers, out=increment)

        else:
            multipliers = _hash_multipliers(self.dimension_).view(np.int64)

            def level_increment(level: int) -> None:
                flags = frac >= 0.5
                np.multiply(frac, 2.0, out=frac)
                np.subtract(frac, flags, out=frac)
                np.matmul(flags.astype(np.int64), multipliers, out=increment)

        def advance(level: int) -> None:
            # Signed integers wrap modulo 2**64 exactly like the uint64 view
            # hash_rows sums in, so the incremental keys are bit-identical
            # to hashing the doubled lattice.
            level_increment(level)
            np.left_shift(keys, np.uint64(1), out=keys)
            np.add(keys, increment.view(np.uint64), out=keys)

        return keys, advance

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
        return len(self.level_cell_ids_)

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
            if self.level_cell_ids_[level][first] == self.level_cell_ids_[level][second]:
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
        """Compact identifier of the level-``level`` cell containing a point."""
        return int(self.level_cell_ids_[level][point_index])

    def points_in_cell(self, level: int, cell_id: int) -> np.ndarray:
        """Indices of the points contained in a given cell (empty if unused).

        With the CSR layout this is two offset lookups and one slice; the
        returned array is a view into the level's sorted point order.
        """
        offsets = self.level_offsets_[level]
        if cell_id < 0 or cell_id >= offsets.shape[0] - 1:
            return _EMPTY_INDICES
        return self.level_order_[level][offsets[cell_id] : offsets[cell_id + 1]]

    def occupied_cells(self, level: int) -> int:
        """Number of distinct non-empty cells at ``level``."""
        return self.level_offsets_[level].shape[0] - 1


def _csr_scratch(n: int) -> tuple:
    """Reusable per-fit work arrays for :func:`_csr_group`."""
    return (
        np.empty(n, dtype=np.uint64),  # keys in sorted order
        np.empty(n, dtype=bool),  # run starts
        np.empty(n, dtype=np.int32),  # identifiers in sorted order
    )


def _csr_group(keys: np.ndarray, scratch: Optional[tuple] = None) -> tuple:
    """Group points by hash key with one sort: int32 (compact ids, order, offsets).

    ``order`` lists the point indices sorted by compact cell identifier
    (stable, so members stay in ascending input order within a cell) and
    ``offsets[c]:offsets[c + 1]`` delimits the members of cell ``c`` inside
    it.  Identifiers rank the distinct keys in ascending (unsigned) order —
    the same labelling ``np.unique(..., return_inverse=True)`` produced in
    the seed implementation, at half the sorting cost and without the
    per-cell Python splitting loop.  ``scratch`` (see :func:`_csr_scratch`)
    lets a caller grouping many levels of the same point set reuse the
    intermediate work arrays; only the three returned arrays are fresh.

    When the compiled tier serves the ``csr_group`` kernel the whole body —
    sort, boundary detection, rank labelling, offsets — runs as one fused
    native call (pinned bit-identical to this pipeline by the registry's
    resolution-time verifier and the forced-fallback golden tests);
    ``scratch`` is ignored on that path, the kernel keeps per-thread work
    buffers of its own.
    """
    kernel = get_kernel("csr_group")
    if kernel is not None:
        return kernel(np.ascontiguousarray(keys))
    n = keys.shape[0]
    if scratch is None:
        scratch = _csr_scratch(n)
    sorted_keys, starts, ids_in_order = scratch
    order = np.argsort(keys, kind="stable")
    np.take(keys, order, out=sorted_keys)
    starts[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    np.cumsum(starts, dtype=np.int32, out=ids_in_order)
    ids_in_order -= 1
    cell_ids = np.empty(n, dtype=np.int32)
    cell_ids[order] = ids_in_order
    boundaries = np.flatnonzero(starts)
    offsets = np.empty(boundaries.shape[0] + 1, dtype=np.int32)
    offsets[:-1] = boundaries
    offsets[-1] = n
    return cell_ids, order.astype(np.int32), offsets
