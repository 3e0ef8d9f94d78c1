"""Kernel declarations, their numpy oracles and their verifiers.

Six kernels ride the compiled tier.  None has a registered fallback: when
a kernel is not served, :func:`~repro.native.registry.get_kernel` returns
``None`` and the caller keeps its own inline numpy path.

``csr_group``
    The whole grouping body of :func:`repro.geometry.quadtree._csr_group`
    fused into one call — sort, boundary detection, rank labelling, CSR
    offsets — plus a hash fast path for duplicate-heavy levels.  The sort
    is one stable MSD counting pass into buckets of about 16 keys followed
    by a stable in-bucket sort, so the permutation is the stable argsort's.
    It takes contiguous 1-D ``uint64`` keys (fewer than ``2**31``) and
    returns ``int32`` ``(cell_ids, order, offsets)``, the quadtree's level
    arrays as stored.

``quadtree_keys``
    The per-level hash keys of a quadtree fit
    (:mod:`repro.geometry.quadtree`).  A binder:
    ``kernel(translated, shift, side, depth_cap, multipliers, keys)``
    writes the level-0 keys ``hash_rows(floor((translated + shift) /
    side))`` into ``keys`` and the left-aligned ``uint32`` digit rows into
    a private buffer in one pass, then returns ``advance(level)``, which
    applies ``key' = 2 * key + bits . multipliers`` in place.  Depth caps
    1..32.

``fkpp_level_score``
    One Fast-kmeans++ register-center sweep over every level of one tree
    (:mod:`repro.clustering.fast_kmeans_pp`): walk the levels deepest
    first, break once the level distance reaches the running ceiling,
    gather the new center's cell members from the level's CSR order,
    compare against the level's candidate distance (strict ``>``), scatter
    distance/slot/mass for the improved points.  Pure per-element stores
    with the caller's precomputed per-level ``candidate ** z`` table — no
    accumulation, so bit-identity needs no ordering replica.  A binder:
    ``kernel(level_orders, level_offsets, level_cells, n, distances, czs,
    best_distance, assignment, mass, weights)`` pins one tree's contiguous
    ``int32`` level arrays and the seeding buffers, and returns
    ``sweep(ceiling, center_slot, center_point, has_mass)``, which locates
    the center's cell at every level itself.

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
    (:mod:`repro.core.spread_reduction`): refresh the dyadic lattice — the
    exact power-of-two scaling for fresh levels, the exact multiply-add
    doubling for consecutive ones — and count distinct multilinear row
    hashes (wrapping uint64, the numpy path's view) in one pass.  The count
    is order-invariant, so any correct distinct counter matches
    ``np.unique``.

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
def _reference_csr_group(keys: np.ndarray) -> tuple:
    """The numpy grouping pipeline of ``quadtree._csr_group`` (inlined here
    so verification does not import the geometry package), in int64; the
    verifier compares values and checks the kernel's int32 dtype apart."""
    n = keys.shape[0]
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    identifiers = np.cumsum(starts, dtype=np.int64) - 1
    cell_ids = np.empty(n, dtype=np.int64)
    cell_ids[order] = identifiers
    boundaries = np.flatnonzero(starts)
    offsets = np.empty(boundaries.shape[0] + 1, dtype=np.int64)
    offsets[:-1] = boundaries
    offsets[-1] = n
    return cell_ids, order, offsets


def reference_fkpp_level_score(
    order: np.ndarray,
    n: int,
    starts: np.ndarray,
    ends: np.ndarray,
    distances: np.ndarray,
    czs: np.ndarray,
    ceiling: float,
    center_slot: int,
    best_distance: np.ndarray,
    assignment: np.ndarray,
    mass: np.ndarray,
    weights: np.ndarray,
    has_mass: bool,
) -> int:
    """Oracle of the Fast-kmeans++ tree sweep, built from live numpy ops.

    This *is* the inline path of ``FastKMeansPlusPlus.register_center`` for
    one tree: scan the levels deepest first, break once the level's
    candidate distance reaches the ceiling (tree distances only grow toward
    the root), fancy-mask the improved members of the center's cell (strict
    ``>``), scatter the candidate distance and center slot, rewrite the
    sampling mass as ``weights[improved] * czs[level + 1]``.  ``order`` is
    the tree's per-level CSR orders concatenated (level ``l`` occupies
    ``order[l * n:(l + 1) * n]``); ``starts``/``ends`` delimit the center's
    cell within each level's row.  Cell members are unique per level, so
    the kernel's sequential stores and this batch scatter write the same
    doubles.
    """
    depth = int(starts.shape[0])
    improved_total = 0
    for level in range(depth - 1, -1, -1):
        candidate = distances[level + 1]
        if candidate >= ceiling and np.isfinite(ceiling):
            break
        members = order[level * n + starts[level] : level * n + ends[level]]
        improved = members[best_distance[members] > candidate]
        if improved.size == 0:
            continue
        best_distance[improved] = candidate
        assignment[improved] = center_slot
        if has_mass:
            mass[improved] = weights[improved] * czs[level + 1]
        improved_total += int(improved.size)
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
    scaled: np.ndarray,
    level: int,
    fresh: bool,
    lattice: np.ndarray,
    frac: np.ndarray,
    multipliers: np.ndarray,
) -> int:
    """Oracle of the Crude-Approx occupancy probe, built from live numpy ops.

    Mirrors the inline ``occupied`` probe of ``crude_cost_upper_bound``
    operation for operation: fresh levels floor ``scaled * 2**level`` and
    keep the fractional parts, consecutive levels apply the multiply-add
    doubling, and the occupancy count is the number of distinct wrapping
    multilinear row hashes (the multipliers are passed in so verification
    does not import the geometry package).
    """
    if fresh:
        scaled_level = scaled * (2.0 ** int(level))
        floored = np.floor(scaled_level).astype(np.int64)
        lattice[...] = floored
        frac[...] = scaled_level - floored
    else:
        bits = frac >= 0.5
        np.multiply(lattice, 2, out=lattice)
        lattice += bits
        np.multiply(frac, 2.0, out=frac)
        frac -= bits
    with np.errstate(over="ignore"):
        keys = (lattice.view(np.uint64) * multipliers[None, :]).sum(
            axis=1, dtype=np.uint64
        )
    return int(np.unique(keys).shape[0])


def reference_quadtree_keys(
    translated: np.ndarray,
    shift: float,
    side: float,
    depth_cap: int,
    multipliers: np.ndarray,
) -> list:
    """Oracle of the quadtree key derivation: every level's keys, from live numpy.

    Restates ``QuadtreeEmbedding._numpy_keys``: level 0
    hashes ``floor((translated + shift) / side)`` (wrapping uint64 row
    sums, ``hash_rows``), the fractional parts scaled by ``2**depth_cap``
    are clamped in float to ``2**depth_cap - 1`` and cast to left-aligned
    ``uint32`` digit rows, and level ``l`` applies ``key' = 2 * key + bits
    . multipliers`` with ``bits`` bit ``32 - l`` of each digit.  Returns
    the ``depth_cap + 1`` key arrays, shallowest first.
    """
    scaled = translated + shift
    scaled /= side
    lattice = np.floor(scaled).astype(np.int64)
    frac = scaled - lattice
    frac *= 2.0**depth_cap
    np.minimum(frac, 2.0**depth_cap - 1, out=frac)
    digits = frac.astype(np.uint32) << np.uint32(32 - depth_cap)
    with np.errstate(over="ignore"):
        keys = (lattice.view(np.uint64) * multipliers[None, :]).sum(
            axis=1, dtype=np.uint64
        )
        levels = [keys]
        for level in range(1, depth_cap + 1):
            bits = ((digits >> np.uint32(32 - level)) & np.uint32(1)).astype(np.uint64)
            increment = (bits * multipliers[None, :]).sum(axis=1, dtype=np.uint64)
            keys = (keys << np.uint64(1)) + increment
            levels.append(keys)
    return levels


# -------------------------------------------------------------- verifiers
def _verify_csr_group(kernel) -> None:
    rng = np.random.default_rng(20240809)
    cases = [
        # Duplicate-heavy (hash fast path), keys scattered over the word.
        rng.integers(0, 7, size=300, dtype=np.uint64) * np.uint64(0x123456789ABCDEF),
        # All distinct (hash path must abort to the radix path).
        rng.integers(0, np.iinfo(np.uint64).max, size=300, dtype=np.uint64),
        # Distinct count just above the n/8 threshold (late abort).
        rng.integers(0, 48, size=300, dtype=np.uint64),
        # Keys sharing their top 40 bits, 240 of them (with duplicates) in
        # one bucket of the sort path, past the insertion cap; they differ
        # in one radix digit only, so the sorted run ends in scratch.
        np.uint64(0xABCDEF0123 << 24)
        + np.concatenate(
            [
                rng.integers(0, 64, size=240, dtype=np.uint64),
                rng.integers(1 << 23, 1 << 24, size=60, dtype=np.uint64),
            ]
        ),
        np.zeros(100, dtype=np.uint64),
        np.array([5, 5], dtype=np.uint64),
        np.array([9, 3, 9], dtype=np.uint64),
    ]
    for keys in cases:
        expected = _reference_csr_group(keys)
        produced = kernel(np.ascontiguousarray(keys))
        for name, have, want in zip(("cell_ids", "order", "offsets"), produced, expected):
            # The quadtree stores these arrays as is and the Fast-kmeans++
            # sweep reads them as int32: another dtype must demote here.
            if have.dtype != np.int32:
                raise RuntimeError(f"csr grouping returned {name} as {have.dtype}, not int32")
            if not np.array_equal(have, want):
                raise RuntimeError(f"csr grouping disagrees with numpy on {name}")


def _verify_fkpp_level_score(kernel) -> None:
    # The kernel is a binder: a fit-lifetime closure over one tree's
    # per-level int32 CSR arrays that resolves the center's cell bounds
    # itself.  Synthetic partitions with known offsets drive it against the
    # numpy oracle; successive centers mutate best/assignment/mass in
    # place, exactly like real seeding.
    rng = np.random.default_rng(20260808)
    for n, depth in ((64, 1), (113, 5), (257, 9)):
        level_orders = []
        level_offsets = []
        level_cells = []
        for level in range(depth):
            n_cells = int(rng.integers(1, max(2, n // (level + 2)) + 1))
            cids = rng.integers(0, n_cells, size=n)
            order = np.argsort(cids, kind="stable").astype(np.int32)
            # One trailing empty cell per level; at every third level the
            # even points read it as their own, so those centers sweep an
            # empty member slice there (as sparse levels can).
            offsets = np.full(n_cells + 2, n, dtype=np.int32)
            offsets[0] = 0
            np.cumsum(np.bincount(cids, minlength=n_cells), out=offsets[1 : n_cells + 1])
            if level % 3 == 2:
                cids[::2] = n_cells
            level_orders.append(order)
            level_offsets.append(offsets)
            level_cells.append(cids.astype(np.int32))
        order_flat = np.concatenate(level_orders)
        distances = np.sort(rng.uniform(0.05, 2.0, size=depth + 1))
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
            level_orders, level_offsets, level_cells, n, distances, czs,
            best, assignment, mass, weights,
        )
        starts = np.empty(depth, dtype=np.int64)
        ends = np.empty(depth, dtype=np.int64)
        # Ceilings: +inf (first center, no break), a mid-table value (the
        # break triggers partway up), and below every level (full break);
        # even centers cross the empty cells.
        for slot, (center_point, ceiling, has_mass) in enumerate(
            (
                (0, np.inf, False),
                (int(rng.integers(0, n)), np.inf, True),
                (2 * int(rng.integers(0, n // 2)), np.inf, True),
                (int(rng.integers(0, n)), float(distances[(depth + 1) // 2]), True),
                (n - 1, 0.0, True),
            )
        ):
            for level in range(depth):
                cid = int(level_cells[level][center_point])
                starts[level] = level_offsets[level][cid]
                ends[level] = level_offsets[level][cid + 1]
            expected_best = best.copy()
            expected_assignment = assignment.copy()
            expected_mass = mass.copy()
            expected = reference_fkpp_level_score(
                order_flat, n, starts, ends, distances, czs, ceiling, slot,
                expected_best, expected_assignment, expected_mass, weights,
                has_mass,
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


def _verify_crude_bound_probe(kernel) -> None:
    rng = np.random.default_rng(20260809)
    for d in (1, 2, 3, 7, 8, 16):
        n = 160
        scaled = rng.uniform(-1.2, 1.2, size=(n, d))
        scaled[::7] = scaled[3]  # duplicate rows share cells at every level
        # Exact dyadic coordinates sit on the 0.5 carry boundary of the
        # doubling step, where ``frac >= 0.5`` must round the same way.
        scaled[::11] = np.round(scaled[::11] * 8.0) / 8.0
        multipliers = (
            rng.integers(1, 2**62, size=d, dtype=np.uint64) * np.uint64(2)
            + np.uint64(1)
        )
        expected_lattice = np.empty((n, d), dtype=np.int64)
        expected_frac = np.empty((n, d), dtype=np.float64)
        lattice = np.empty((n, d), dtype=np.int64)
        frac = np.empty((n, d), dtype=np.float64)
        # A bisection-shaped probe sequence: fresh jumps and consecutive
        # doubling runs, including a fresh restart at level 0.
        for level, fresh in ((3, True), (4, False), (5, False), (9, True), (10, False), (0, True)):
            expected = reference_crude_bound_probe(
                scaled, level, fresh, expected_lattice, expected_frac, multipliers
            )
            produced = kernel(scaled, level, fresh, lattice, frac, multipliers)
            if not (
                int(produced) == expected
                and np.array_equal(lattice, expected_lattice)
                and np.array_equal(frac, expected_frac)
            ):
                raise RuntimeError(
                    "crude-bound probe disagrees with the numpy path "
                    f"(d={d}, level={level}, fresh={fresh})"
                )


def quadtree_key_points(rng, n: int, d: int, delta: float) -> tuple:
    """Translated points and a shift shaped like a quadtree fit's level 0.

    Coordinates span ``[-delta, delta]`` and the shift ``[0, delta)``, so
    the level-0 lattice takes (almost only) the values -1 and 0.  Row 0 is
    the origin,
    row 1 lands an ulp below a cell boundary (its fractional part rounds to
    exactly 1.0 and must clamp to the all-ones digit row), row 2 lands
    ``2**-41`` cells below one (all-ones digits without the clamp), and
    every ninth row from row 3 sits on (or within rounding of) a level-6
    digit boundary.
    """
    translated = rng.uniform(-delta, delta, size=(n, d))
    shift = float(rng.uniform(0.0, delta))
    translated[0] = 0.0
    translated[1] = -(shift + np.spacing(shift))
    translated[2] = -(shift + delta * 2.0**-40)
    side = 2.0 * delta
    translated[3::9] = np.round((translated[3::9] + shift) / side * 64.0) / 64.0 * side - shift
    return translated, shift


def _verify_quadtree_keys(kernel) -> None:
    rng = np.random.default_rng(20261017)
    for d, depth_cap in ((1, 32), (2, 1), (3, 17), (8, 32), (9, 31), (17, 5)):
        n, delta = 40, 1e6
        translated, shift = quadtree_key_points(rng, n, d, delta)
        multipliers = (
            rng.integers(1, 2**62, size=d, dtype=np.uint64) * np.uint64(2)
            + np.uint64(1)
        )
        expected = reference_quadtree_keys(translated, shift, 2.0 * delta, depth_cap, multipliers)
        keys = np.empty(n, dtype=np.uint64)
        advance = kernel(translated, shift, 2.0 * delta, depth_cap, multipliers, keys)
        for level, want in enumerate(expected):
            if level:
                advance(level)
            if not np.array_equal(keys, want):
                raise RuntimeError(
                    "quadtree keys disagree with the numpy derivation "
                    f"(d={d}, depth_cap={depth_cap}, level={level})"
                )


def _register() -> None:
    registry.register_kernel("csr_group", verify=_verify_csr_group)
    registry.register_kernel("fkpp_level_score", verify=_verify_fkpp_level_score)
    registry.register_kernel("fkpp_weighted_draw", verify=_verify_fkpp_weighted_draw)
    registry.register_kernel("crude_bound_probe", verify=_verify_crude_bound_probe)
    registry.register_kernel("kmeanspp_round", verify=_verify_kmeanspp_round)
    registry.register_kernel("quadtree_keys", verify=_verify_quadtree_keys)


_register()


__all__ = [
    "kernel_provider",
    "reference_crude_bound_probe",
    "reference_fkpp_draw_scan",
    "reference_fkpp_level_score",
    "reference_fkpp_weighted_draw",
    "reference_kmeanspp_round",
    "reference_quadtree_keys",
]
