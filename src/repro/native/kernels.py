"""Kernel declarations, their numpy oracles and their verifiers.

Five kernels ride the compiled tier.  None has a registered fallback: when
a kernel is not served, :func:`~repro.native.registry.get_kernel` returns
``None`` and the caller keeps its own numpy path.

``quadtree_build``
    One whole quadtree fit (:mod:`repro.geometry.quadtree`) as one Z-order
    permutation plus one offsets array per level.  ``kernel(points,
    origin, shift, side, depth_cap)`` returns int32 ``(order, position,
    level_offsets)``, equal to :func:`reference_quadtree_build`, and
    ``kernel.max_squared_norm(points, origin)`` is the largest
    ``einsum``-replica squared distance to the origin row.  Both read the
    points directly, with no translated copy.  Depth caps 1..32.

``fkpp_level_score``
    One Fast-kmeans++ register-center sweep over every level of one tree
    (:mod:`repro.clustering.fast_kmeans_pp`): walk the levels deepest
    first, break once the level distance reaches the running ceiling,
    find the center's cell from its position in the tree's order, compare
    the part of the cell outside the deeper cell against the level's
    candidate distance (strict ``>``), scatter distance/slot/mass for the
    improved points.  Pure per-element stores with the caller's
    precomputed per-level ``candidate ** z`` table — no accumulation, so
    bit-identity needs no ordering replica.  A binder:
    ``kernel(order, position, level_offsets, distances, czs,
    best_distance, assignment, mass, weights)`` pins one tree's contiguous
    ``int32`` arrays and the seeding buffers, and returns
    ``sweep(ceiling, center_slot, center_point, has_mass)``, the same call
    as :func:`reference_fkpp_level_score` with those arguments bound.

``fkpp_weighted_draw``
    The D²-draw of both seedings split into its two observable steps: the
    sequential ``np.cumsum`` total and the first-exceed scan equal to
    ``searchsorted(cumsum, u, side="right")``.

``kmeanspp_round``
    One round of plain k-means++ seeding (:mod:`repro.clustering.kmeans_pp`)
    in one pass: einsum-identical squared distances to the new center, the
    strict-``<`` nearest-distance/assignment update, the next draw's D^z
    mass and its cumsum total.  After round 0 it skips every point whose
    current center ``j`` is provably too far from the new center for the
    point to strictly improve (``best == 0``, or a normal ``best`` with a
    finite ``4 * (1 + 2**-20) * best <= gap[j]``, ``gap[j]`` the
    einsum-replica squared distance between the two centers) and adds the
    point's stored mass to the total instead.  The kernel is a binder:
    ``kernel(points, weights, best_squared, assignment, mass, z)`` returns
    ``run_round(center_row, slot, init) -> total`` over those buffers; the
    rounds must run in slot order (``init`` exactly at slot 0) and
    ``run_round.distance_evals`` counts the point distances computed.

``crude_bound_probe``
    One Crude-Approx (Algorithm 2) occupancy probe
    (:mod:`repro.core.spread_reduction`), read straight from the points:
    ``kernel(points, shift, diameter, level, multipliers, cap)`` floors
    ``((x - shift) / diameter) * 2**level`` per coordinate (numpy's
    operations in numpy's order), hashes each row on the fly to its
    wrapping multilinear uint64 key, and returns ``min(distinct keys,
    cap)``, the count of :func:`reference_crude_bound_probe`; it stops
    scanning at the ``cap``-th distinct key, and its hash table needs only
    ``2 * min(n, cap)`` slots.  The count is order-invariant, so any correct
    distinct counter matches ``np.unique``.  The caller probes only levels
    whose lattice fits int64, so the kernel's float-to-int64 cast is always
    defined.

Every verifier compares the compiled implementation against *live numpy
calls* on adversarial inputs before the registry ever routes a real call to
it.  That is the load-bearing design: the k-means++ round replicates this
numpy build's exact ``einsum`` accumulation order, and if a different numpy
build changes it, verification fails and the registry keeps the numpy path
for that kernel (reported by :func:`~repro.native.registry.kernel_demotions`) —
numpy speed, never wrong results.
"""

from __future__ import annotations

import numpy as np

from repro.native import registry
from repro.native.registry import kernel_provider

# ---------------------------------------------------------------- oracles
def reference_fkpp_level_score(
    order: np.ndarray,
    position: np.ndarray,
    level_offsets,
    distances: np.ndarray,
    czs: np.ndarray,
    best_distance: np.ndarray,
    assignment: np.ndarray,
    mass: np.ndarray,
    weights: np.ndarray,
    ceiling: float,
    center_slot: int,
    center_point: int,
    has_mass: bool,
) -> int:
    """The Fast-kmeans++ tree sweep in numpy: the numpy tier's sweep and the
    kernel's oracle.

    Scan the levels deepest first, break once the level's candidate
    distance reaches the ceiling (tree distances only grow toward the
    root), and mask the improved members of the center's cell (strict
    ``>``): scatter the candidate distance and center slot, rewrite the
    sampling mass as ``weights[improved] * czs[level + 1]``.  Every cell is
    the range ``offsets[c]:offsets[c + 1]`` of ``order``, and the center's
    is the one holding ``position[center_point]``.  A level visits only the
    part of its cell outside the deeper cell: the deeper level was swept
    just before with a smaller candidate, so none of its points can
    strictly improve.  Cell members are unique, so the kernel's sequential
    stores and this batch scatter write the same doubles.  Returns the
    number of improved points.
    """
    at = int(position[center_point])
    inner_start = inner_end = at
    improved_total = 0
    for level in range(len(level_offsets) - 1, -1, -1):
        candidate = distances[level + 1]
        if candidate >= ceiling and np.isfinite(ceiling):
            break
        offsets = level_offsets[level]
        cell = int(np.searchsorted(offsets, at, side="right")) - 1
        start, end = int(offsets[cell]), int(offsets[cell + 1])
        for members in (order[start:inner_start], order[inner_end:end]):
            improved = members[best_distance[members] > candidate]
            if improved.size == 0:
                continue
            best_distance[improved] = candidate
            assignment[improved] = center_slot
            if has_mass:
                mass[improved] = weights[improved] * czs[level + 1]
            improved_total += int(improved.size)
        inner_start, inner_end = start, end
    return improved_total


def reference_fkpp_weighted_draw(mass: np.ndarray) -> float:
    """Oracle of the D²-draw prefix total: ``np.cumsum(mass)[-1]``.

    The native draw is split into the numpy path's two observable steps —
    a sequential prefix total (this oracle) followed, once the caller has
    checked finiteness/positivity and drawn its uniform variate, by the
    first-exceed scan of :func:`reference_fkpp_draw_scan`.  The split
    keeps RNG consumption identical to the fallback: the stream advances
    only when the total is valid.
    """
    if mass.shape[0] == 0:
        return 0.0
    return float(np.cumsum(mass)[-1])


def reference_fkpp_draw_scan(mass: np.ndarray, u: float) -> int:
    """Oracle of the D²-draw index scan: ``searchsorted(cumsum, u, "right")``.

    Valid for non-negative ``mass`` (the D²-sampling invariant), where the
    prefix sums are non-decreasing and the binary search's answer equals
    the first index whose prefix strictly exceeds ``u``.
    """
    return int(np.searchsorted(np.cumsum(mass), u, side="right"))


def reference_kmeanspp_round(
    points: np.ndarray,
    center: np.ndarray,
    weights: np.ndarray,
    best_squared: np.ndarray,
    assignment: np.ndarray,
    mass: np.ndarray,
    slot: int,
    z: int,
    init: bool,
) -> float:
    """Oracle of one fused k-means++ round, built from live numpy ops.

    The numpy seeding loop's round, in place: ``einsum`` squared distances
    to the new center, the strict-``<`` ``np.where`` update of the running
    nearest distance and assignment (plain initialisation on round 0), the
    next draw's mass ``weights * best`` (``* sqrt(best)`` for ``z = 1``),
    and its ``np.cumsum`` total.
    """
    delta = points - center[None, :]
    squared = np.einsum("ij,ij->i", delta, delta)
    if init:
        best_squared[...] = squared
        assignment[...] = slot
    else:
        improved = squared < best_squared
        best_squared[...] = np.where(improved, squared, best_squared)
        assignment[...] = np.where(improved, slot, assignment)
    mass[...] = weights * (best_squared if z == 2 else np.sqrt(best_squared))
    return float(np.cumsum(mass)[-1])


def reference_crude_bound_probe(
    points: np.ndarray,
    shift: np.ndarray,
    diameter: float,
    level: int,
    multipliers: np.ndarray,
    cap: int,
) -> int:
    """The Crude-Approx occupancy probe in numpy: the numpy tier's probe and
    the kernel's oracle.

    ``min(occupied cells, cap)`` at ``level``.  Coordinate ``j`` of a row
    lies in lattice cell ``floor(((x - shift[j]) / diameter) * 2**level)``,
    a row's key is the wrapping multilinear hash ``sum_j lattice[j] *
    multipliers[j]`` in uint64 (the multipliers are passed in so
    verification does not import the geometry package), and a cell is a
    distinct key.  The caller passes only levels whose lattice fits int64.
    """
    scaled = points - shift[None, :]
    scaled /= diameter
    scaled *= 2.0 ** int(level)
    lattice = np.floor(scaled, out=scaled).astype(np.int64)
    with np.errstate(over="ignore"):
        keys = (lattice.view(np.uint64) * multipliers[None, :]).sum(axis=1, dtype=np.uint64)
    return min(int(np.unique(keys).shape[0]), int(cap))


def reference_quadtree_max_squared_norm(points: np.ndarray, origin: np.ndarray) -> float:
    """The fit's largest squared distance to its origin row, as numpy sums it."""
    translated = points - origin[None, :]
    return float(np.einsum("ij,ij->i", translated, translated).max())


def _plane_words(bits: np.ndarray) -> list:
    """A bit plane's sort keys, most significant first: one uint64 word per
    64 coordinates, the highest coordinates first; bit ``j`` of word ``w``
    (counted from the lowest coordinates) is ``bits[:, 64 w + j]``."""
    n, d = bits.shape
    words = (d + 63) // 64
    padded = np.zeros((n, 64 * words), dtype=bool)
    padded[:, :d] = bits
    packed = np.packbits(padded.reshape(-1), bitorder="little").view("<u8")
    packed = packed.reshape(n, words)
    return [packed[:, w] for w in range(words - 1, -1, -1)]


def reference_quadtree_build(
    points: np.ndarray, origin: np.ndarray, shift: float, side: float, depth_cap: int
) -> tuple:
    """One quadtree's int32 ``(order, position, level_offsets)`` in numpy.

    The numpy tier's build and the ``quadtree_build`` kernel's oracle.
    ``scaled = ((points - origin) + shift) / side``; a coordinate's level-0
    cell code is ``(scaled >= 0) + (scaled >= 1)`` (the lattice value plus
    one for the lattices -1, 0 and 1 a fit produces), and its level-``l``
    digit is the ``l``-th binary digit of ``scaled - floor(scaled)``, read
    by doubling: ``bit = frac >= 0.5; frac = 2 frac - bit``.  Doubling is
    exact, and a fractional part that rounded to exactly 1.0 stays 1.0, so
    it reads as all ones at every depth (the kernel's clamped digit rows).
    Level 0 orders the points by their code's high bit pattern, then its
    low bit pattern; every deeper level stably sorts each cell by its digit
    pattern, bit ``j`` coordinate ``j``'s digit, compared as an unsigned
    number.  Points that share every pattern keep input order.  A level's
    cells are the runs of equal patterns, and construction stops at
    ``depth_cap`` or at the first level whose cells are all singletons.
    """
    n = points.shape[0]
    scaled = points - origin[None, :]
    scaled += shift
    scaled /= side
    frac = scaled - np.floor(scaled)
    # The code's high bit is scaled >= 1, its low bit 0 <= scaled < 1.
    keys = _plane_words(scaled >= 1.0) + _plane_words((scaled >= 0.0) & (scaled < 1.0))
    del scaled
    order = (np.lexsort(keys[::-1]) if keys else np.arange(n)).astype(np.int32)
    starts = np.zeros(n, dtype=bool)
    starts[:1] = True
    level_offsets = []
    for level in range(depth_cap + 1):
        if level:
            bits = frac >= 0.5
            frac *= 2.0
            frac -= bits
            keys = _plane_words(bits)
            cells = np.cumsum(starts) - 1
            order = order[np.lexsort([key[order] for key in keys[::-1]] + [cells])]
        for key in keys:
            ordered = key[order]
            starts[1:] |= ordered[1:] != ordered[:-1]
        level_offsets.append(np.append(np.flatnonzero(starts), n).astype(np.int32))
        if level_offsets[-1].shape[0] - 1 >= n:
            break
    position = np.empty(n, dtype=np.int32)
    position[order] = np.arange(n, dtype=np.int32)
    return order, position, level_offsets


# -------------------------------------------------------------- verifiers
def _nested_layout(rng, n: int, depth: int) -> tuple:
    """A random Z-order layout: ``(order, position, level_offsets)``.

    ``order`` is a random permutation, and every level's cell boundaries
    are a random subset of the next deeper level's, so the cells nest the
    way a quadtree's do.
    """
    order = rng.permutation(n).astype(np.int32)
    position = np.empty(n, dtype=np.int32)
    position[order] = np.arange(n, dtype=np.int32)
    boundaries = np.arange(1, n)[rng.random(n - 1) < 0.6]
    levels = [boundaries]
    for _ in range(depth - 1):
        boundaries = boundaries[rng.random(boundaries.size) < 0.5]
        levels.append(boundaries)
    level_offsets = [np.concatenate([[0], cuts, [n]]).astype(np.int32) for cuts in levels[::-1]]
    return order, position, level_offsets


def _verify_fkpp_level_score(kernel) -> None:
    # The kernel is a binder: a fit-lifetime closure over one tree's int32
    # Z-order layout.  Random nested layouts drive it against the numpy
    # sweep; successive centers mutate best/assignment/mass in place,
    # exactly like real seeding.
    rng = np.random.default_rng(20260808)
    for n, depth in ((64, 1), (113, 5), (257, 9)):
        order, position, level_offsets = _nested_layout(rng, n, depth)
        distances = np.sort(rng.uniform(0.05, 2.0, size=depth + 1))[::-1].copy()
        czs = np.array([np.float64(v) ** 2 for v in distances], dtype=np.float64)
        best = rng.uniform(0.0, 2.0, size=n)
        best[rng.random(n) < 0.2] = np.inf  # pre-first-sweep entries
        # Exact ties pin the strict comparison: tied members must not move.
        tied = rng.permutation(n)[: n // 8]
        best[tied] = distances[rng.integers(1, depth + 1, size=tied.size)]
        assignment = rng.integers(-1, 5, size=n).astype(np.int64)
        mass = rng.uniform(0.0, 4.0, size=n)
        weights = rng.uniform(0.1, 3.0, size=n)
        sweep = kernel(
            order, position, level_offsets, distances, czs, best, assignment, mass, weights
        )
        # Ceilings: +inf (first center, no break), a mid-table value (the
        # break triggers partway up), and below every level (full break).
        for slot, (center_point, ceiling, has_mass) in enumerate(
            (
                (0, np.inf, False),
                (int(rng.integers(0, n)), np.inf, True),
                (3, np.inf, True),
                (int(rng.integers(0, n)), float(distances[(depth + 1) // 2]), True),
                (n - 1, 0.0, True),
            )
        ):
            expected_best = best.copy()
            expected_assignment = assignment.copy()
            expected_mass = mass.copy()
            expected = reference_fkpp_level_score(
                order, position, level_offsets, distances, czs, expected_best,
                expected_assignment, expected_mass, weights, ceiling, slot,
                center_point, has_mass,
            )
            produced = sweep(ceiling, slot, center_point, has_mass)
            if not (
                int(produced) == expected
                and np.array_equal(best, expected_best)
                and np.array_equal(assignment, expected_assignment)
                and np.array_equal(mass, expected_mass)
            ):
                raise RuntimeError(
                    "level-score sweep disagrees with the numpy sweep "
                    f"(n={n}, depth={depth}, center={center_point}, "
                    f"has_mass={has_mass}, ceiling={ceiling})"
                )


def _verify_fkpp_weighted_draw(kernel) -> None:
    scan = getattr(kernel, "scan", None)
    binder = getattr(kernel, "bind", None)
    if scan is None or binder is None:
        raise RuntimeError("weighted draw kernel must expose scan() and bind()")
    rng = np.random.default_rng(20260810)
    for n in (1, 17, 256, 1001):
        mass = rng.uniform(0.0, 3.0, size=n)
        mass[rng.random(n) < 0.3] = 0.0  # zero-mass runs create prefix ties
        cumulative = np.cumsum(mass)
        total = float(cumulative[-1])
        expected_total = reference_fkpp_weighted_draw(mass)
        bound_total, bound_scan = binder(mass)
        for produced in (float(kernel(mass)), float(bound_total())):
            # Bit-exact: the kernel must replay the cumsum add chain.
            if not (produced == expected_total or (np.isnan(produced) and np.isnan(expected_total))):
                raise RuntimeError(f"draw total disagrees with cumsum (n={n})")
        # u values cover the interior, exact prefix ties (side="right" must
        # step past them), zero, and u >= total (index n, clamped by the
        # caller).
        us = [0.0, total * 0.25, total * 0.999, total, total * 1.5]
        us.extend(float(cumulative[i]) for i in (0, n // 2, n - 1))
        for u in us:
            expected = reference_fkpp_draw_scan(mass, u)
            if int(scan(mass, u)) != expected or int(bound_scan(u)) != expected:
                raise RuntimeError(f"draw scan disagrees with searchsorted (n={n}, u={u})")


def _verify_kmeanspp_round(kernel) -> None:
    rng = np.random.default_rng(20260811)
    # (points, weights, center rows) per case.  First the einsum replica's
    # dimension classes (8-wide blocks, pairwise drain, scalar tail) plus one
    # overflow case whose distances and mass go to inf/NaN; a few dozen tiny
    # rounds, since this runs at every resolution.
    cases = []
    for d, scale in ((1, 1.0), (2, 1.0), (3, 1e155), (8, 1.0), (9, 1.0), (10, 1.0), (17, 1.0)):
        n = 48
        points = rng.normal(size=(n, d)) * scale
        points[::5] = points[2]  # duplicate rows tie at every center
        weights = rng.uniform(0.1, 3.0, size=n)
        weights[::7] = 0.0
        # The third round re-uses the first center: every distance ties the
        # incumbent exactly and the strict comparison must keep it.
        cases.append((points, weights, (2, int(rng.integers(0, n)), 2, n - 1)))
    # Two far blobs, rows alternating between them, centers too: once each
    # blob holds a center, a round skips the other blob's points, so
    # skipped and evaluated points interleave in the mass total.
    blobs = rng.normal(size=(64, 3))
    blobs[1::2] += 1e3
    cases.append((blobs, rng.uniform(0.1, 3.0, size=64), (0, 1, 2, 5, 8, 13)))
    # Finite b next to an infinite gap: the centers' squared distance
    # overflows.  Row 2 (b = 1e306) may skip; row 3 (b = 1e308, whose
    # pruning limit overflows) must not, because it moves to the new center.
    far = np.array([0.0, 1.5e154, 1e153, 1e154, -1e154, 5e153, 2e152, 1.2e154])[:, None]
    cases.append((far, np.ones(far.shape[0]), (0, 1, 6)))
    for points, weights, rows in cases:
        n, d = points.shape
        for z in (1, 2):
            expected = [np.empty(n), np.empty(n, dtype=np.int64), np.empty(n)]
            # Zeroed, not empty: round 0 must initialise even a zero best.
            have = [np.zeros(n), np.zeros(n, dtype=np.int64), np.zeros(n)]
            run_round = kernel(points, weights, *have, z)
            for slot, row in enumerate(rows):
                init = slot == 0
                with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf mass is NaN
                    want = reference_kmeanspp_round(
                        points, points[row], weights, *expected, slot, z, init
                    )
                evaluated = run_round.distance_evals
                total = run_round(row, slot, init)
                evaluated = run_round.distance_evals - evaluated
                if not (
                    (total == want or (np.isnan(total) and np.isnan(want)))
                    and all(np.array_equal(h, w, equal_nan=True)
                            for h, w in zip(have, expected))
                    and (evaluated == n if init else 0 <= evaluated <= n)
                ):
                    raise RuntimeError(
                        "kmeans++ round disagrees with the numpy round "
                        f"(n={n}, d={d}, z={z}, slot={slot})"
                    )


def probe_points(rng, d: int, levels) -> tuple:
    """``(shift, diameter, inputs)``: one occupancy-probe input per level.

    Each holds 100 uniform rows (duplicates, one a hair below the shift),
    60 rows at ``shift + diameter * i / 64`` for multiples ``i`` of 3, most
    exactly on a cell boundary from level 6 on (the diameter's reciprocal
    rounds, so only a true division keeps them there), and the centre of
    each one's cell at that level.  No neighbouring cell holds a centre, so
    a boundary row floored into another cell changes the count.
    """
    shift = np.full(d, 0.375)
    diameter = 1.1
    uniform = shift + diameter * rng.uniform(-1.2, 1.2, size=(100, d))
    uniform[::7] = uniform[2]
    uniform[1] = shift - 2.0**-40
    boundary = shift + diameter * (3 * rng.integers(-25, 26, size=(60, d)) / 64)
    inputs = []
    for level in levels:
        scale = 2.0**level
        cells = np.floor((boundary - shift) / diameter * scale)
        inputs.append(np.concatenate([uniform, boundary, shift + diameter * ((cells + 0.5) / scale)]))
    return shift, diameter, inputs


def _verify_crude_bound_probe(kernel) -> None:
    rng = np.random.default_rng(20260809)
    levels = (0, 6, 20, 60)  # level 60 takes the kernel's floor past 2**52
    for d in (1, 2, 3, 7, 8, 16):
        multipliers = (
            rng.integers(1, 2**62, size=d, dtype=np.uint64) * np.uint64(2)
            + np.uint64(1)
        )
        shift, diameter, inputs = probe_points(rng, d, levels)
        for level, points in zip(levels, inputs):
            n = points.shape[0]
            distinct = reference_crude_bound_probe(points, shift, diameter, level, multipliers, n)
            # A full scan (a cap above the count) and a scan stopped one
            # key early (below it); level 6 adds caps of 1 and at the count.
            below, above = max(1, distinct - 1), n + 1
            caps = {0: (above,), 6: (1, below, distinct, above), 20: (below,), 60: (above,)}
            for cap in caps[level]:
                produced = kernel(points, shift, diameter, level, multipliers, cap)
                if int(produced) != min(distinct, cap):
                    raise RuntimeError(
                        "crude-bound probe disagrees with the numpy probe "
                        f"(d={d}, level={level}, cap={cap})"
                    )


def quadtree_points(rng, n: int, d: int, delta: float) -> tuple:
    """``(points, origin, shift)`` shaped like a quadtree fit's level 0.

    Coordinates span ``[-delta, delta]`` and the shift ``[0, delta)``, so
    with the fit's cell side ``2 * delta`` the level-0 lattice takes
    (almost only) the values -1 and 0.  Row 0 is the origin, at zero, so
    ``x - origin`` is exact and the rows keep their positions.  Row 1
    lands an ulp below a cell boundary (its fractional part rounds to
    exactly 1.0 and must read as all ones), row 2 lands ``2**-41`` cells
    below one (all ones without rounding), and every ninth row from row 3
    sits on (or within rounding of) a level-6 digit boundary.
    """
    translated = rng.uniform(-delta, delta, size=(n, d))
    shift = float(rng.uniform(0.0, delta))
    translated[0] = 0.0
    translated[1] = -(shift + np.spacing(shift))
    translated[2] = -(shift + delta * 2.0**-40)
    side = 2.0 * delta
    translated[3::9] = np.round((translated[3::9] + shift) / side * 64.0) / 64.0 * side - shift
    return translated, np.zeros(d), shift


#: ``(n, d, depth_cap, side / delta)`` of the ``quadtree_build`` verifier:
#: the clamped all-ones row at depth 32, a cell side short enough to give
#: lattice value 1 (a level-0 code with its high bit set), one- and
#: two-word planes, and one- and two-point inputs.
_QUADTREE_BUILD_CASES = (
    (40, 1, 32, 2.0),
    (40, 3, 6, 1.5),
    (40, 9, 5, 2.0),
    (24, 70, 3, 2.0),
    (2, 2, 8, 2.0),
    (1, 3, 4, 2.0),
)


def _verify_quadtree_build(kernel) -> None:
    max_squared_norm = getattr(kernel, "max_squared_norm", None)
    if max_squared_norm is None:
        raise RuntimeError("quadtree kernel must expose max_squared_norm()")
    rng = np.random.default_rng(20261017)
    # The squared norms behind delta follow the einsum replica: check its
    # dimension classes (pairs, 8-wide blocks, tails) away from zero.
    for d in (1, 2, 3, 8, 9, 10, 17, 70):
        points = rng.normal(size=(16, d)) * 10.0 ** rng.uniform(-3, 3, size=(16, d))
        origin = np.ascontiguousarray(points[5])
        if float(max_squared_norm(points, origin)) != reference_quadtree_max_squared_norm(points, origin):
            raise RuntimeError(f"quadtree squared norms disagree with einsum (d={d})")
    for n, d, depth_cap, ratio in _QUADTREE_BUILD_CASES:
        points, origin, shift = quadtree_points(rng, max(n, 3), d, 1e6)
        points = points[:n].copy()
        points[10:14] = points[4:5]  # duplicates share every level's cell
        expected = reference_quadtree_build(points, origin, shift, ratio * 1e6, depth_cap)
        produced = kernel(points, origin, shift, ratio * 1e6, depth_cap)
        have = [produced[0], produced[1], *produced[2]]
        want = [expected[0], expected[1], *expected[2]]
        # The tree stores these arrays as is and the sweep reads them as
        # int32: another dtype must demote here.
        if len(have) != len(want) or not all(
            h.dtype == np.int32 and h.flags["C_CONTIGUOUS"] and np.array_equal(h, w)
            for h, w in zip(have, want)
        ):
            raise RuntimeError(
                f"quadtree build disagrees with numpy (n={n}, d={d}, depth_cap={depth_cap})"
            )


def _register() -> None:
    registry.register_kernel("quadtree_build", verify=_verify_quadtree_build)
    registry.register_kernel("fkpp_level_score", verify=_verify_fkpp_level_score)
    registry.register_kernel("fkpp_weighted_draw", verify=_verify_fkpp_weighted_draw)
    registry.register_kernel("crude_bound_probe", verify=_verify_crude_bound_probe)
    registry.register_kernel("kmeanspp_round", verify=_verify_kmeanspp_round)


_register()


__all__ = [
    "kernel_provider",
    "probe_points",
    "reference_crude_bound_probe",
    "reference_fkpp_draw_scan",
    "reference_fkpp_level_score",
    "reference_fkpp_weighted_draw",
    "reference_kmeanspp_round",
    "reference_quadtree_build",
    "reference_quadtree_max_squared_norm",
]
