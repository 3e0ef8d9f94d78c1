"""The ``cc`` provider: a small C translation unit compiled on first use.

The kernels live in one C source string below; :func:`load_kernels` writes
it next to a content-hashed shared object under the build cache
(``REPRO_NATIVE_CACHE``, defaulting to ``src/repro/native/_build/`` and
degrading to a temporary directory when the package directory is not
writable), compiles it with the first of ``cc``/``gcc``/``clang`` found on
``PATH``, and binds the entry points through :mod:`ctypes`.  The shared
object name embeds a hash of the source, so editing a kernel rebuilds
automatically and concurrent processes (the shared-memory pool workers all
import this module) reuse one artifact; the build itself goes through an
atomic rename so racing builders never observe a half-written library.

Floating-point contract: the translation unit is compiled with ``-O3
-ffp-contract=off`` — no ``-ffast-math``, no FMA contraction — so every
floating-point expression evaluates exactly as parenthesised.  The distance
kernels lean on that: ``repro__einsum_sq`` reproduces, operation for
operation, the two-lane SSE2 accumulation pattern of this numpy build's
``einsum("ij,ij->i", delta, delta)`` (two independent partial sums over the
even/odd lanes, a four-vector unrolled main loop folding right-to-left, and
the scalar tail), so the squared distances the k-means++ round computes are
bit-identical to the numpy seeding loop it replaces.  The resolution-time
verifiers check exactly that against live numpy calls — on a numpy build
with a different SIMD dispatch the verifier fails and the registry quietly
keeps the numpy path.

Threading: ctypes releases the GIL around every call and the kernels use
only stack and caller-provided memory, so concurrent quadtree fits on the
async thread executor are safe.  A Python wrapper allocates the work
arrays of each call itself (a binder, those of the call it binds), so no
buffer is shared between threads.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, Dict, Tuple

import numpy as np
from numpy.ctypeslib import ndpointer

#: Build cache override (a directory path).
ENV_CACHE = "REPRO_NATIVE_CACHE"

_SOURCE = r"""
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* ----------------------------------------------------------- fast-kmeans++ */

/* One stretch of a Fast-kmeans++ register-center sweep: for every point
 * order[idx], start <= idx < end, whose best distance strictly exceeds the
 * candidate, store the candidate, the center slot, and (once the first
 * center's mass vector exists) the mass weights[i] * cz.  `cz` is the
 * caller's precomputed candidate**z -- the same double the numpy sweep
 * multiplies by -- so every stored value is bit-identical to the
 * fancy-indexed numpy path (pure per-element gather/compare/scatter; no
 * accumulation, hence no ordering hazard).  The gathers are latency-bound
 * random accesses, so upcoming best-distance entries are
 * software-prefetched.  Returns the improved-point count. */
static int64_t repro__fkpp_sweep_range(const int32_t *order, int64_t start,
                                       int64_t end, double candidate,
                                       double cz, int64_t center_slot,
                                       double *best_distance,
                                       int64_t *assignment, double *mass,
                                       const double *weights, int has_mass)
{
    int64_t idx;
    int64_t improved = 0;
    for (idx = start; idx < end; ++idx) {
        const int64_t i = order[idx];
        if (idx + 16 < end)
            __builtin_prefetch(&best_distance[order[idx + 16]], 0, 1);
        if (best_distance[i] > candidate) {
            best_distance[i] = candidate;
            assignment[i] = center_slot;
            if (has_mass)
                mass[i] = weights[i] * cz;
            ++improved;
        }
    }
    return improved;
}

/* One Fast-kmeans++ register-center sweep over every level of one tree,
 * driven directly off the quadtree's Z-order layout: every cell of every
 * level is the range offsets[c]..offsets[c + 1] of the one permutation
 * `order`, nested in its parent's range.  offset_ptrs holds one pointer per
 * level (as uint64) into the tree's own level_offsets_ arrays and
 * cell_counts their cell counts.  The center's cell at a level is the one
 * whose range holds position[center_point] (a binary search over the
 * offsets).  distances/czs are the per-level candidate distance and the
 * caller's precomputed candidate**z (indexed at level + 1, matching the
 * level-distance table).  Levels are scanned deepest first and the scan
 * breaks once the candidate reaches the ceiling (tree distances only grow
 * toward the root) -- the exact control flow of the numpy sweep.  Each
 * level visits only the part of its cell outside the deeper cell: that
 * cell was swept just before with a smaller candidate, so none of its
 * points can strictly improve on this one. */
int64_t repro_fkpp_center_sweep(const int32_t *order, const int32_t *position,
                                const uint64_t *offset_ptrs,
                                const int64_t *cell_counts, int64_t depth,
                                int64_t center_point, const double *distances,
                                const double *czs, double ceiling,
                                int64_t center_slot, double *best_distance,
                                int64_t *assignment, double *mass,
                                const double *weights, int has_mass)
{
    const int64_t at = position[center_point];
    int64_t inner_start = at;
    int64_t inner_end = at;
    int64_t level;
    int64_t improved = 0;
    for (level = depth - 1; level >= 0; --level) {
        const double candidate = distances[level + 1];
        const int32_t *offsets =
            (const int32_t *)(uintptr_t)offset_ptrs[level];
        int64_t low = 0;
        int64_t high = cell_counts[level];
        if (candidate >= ceiling && isfinite(ceiling))
            break;
        while (high - low > 1) { /* offsets[low] <= at < offsets[high] */
            const int64_t middle = low + (high - low) / 2;
            if (offsets[middle] <= at)
                low = middle;
            else
                high = middle;
        }
        improved += repro__fkpp_sweep_range(
            order, offsets[low], inner_start, candidate, czs[level + 1],
            center_slot, best_distance, assignment, mass, weights, has_mass);
        improved += repro__fkpp_sweep_range(
            order, inner_end, offsets[low + 1], candidate, czs[level + 1],
            center_slot, best_distance, assignment, mass, weights, has_mass);
        inner_start = offsets[low];
        inner_end = offsets[low + 1];
    }
    return improved;
}

/* The D^2-sampling draw, split into the same two observable steps as the
 * numpy path (cumsum -> validity check -> searchsorted): a sequential
 * prefix total and a first-exceed scan.  Both walk the mass array in the
 * exact left-to-right IEEE order of np.cumsum, so every partial sum is the
 * same double as the corresponding cumsum entry; the scan then returns the
 * first index whose prefix exceeds u, which for non-negative mass (the
 * caller's precondition -- prefixes are non-decreasing) is precisely
 * np.searchsorted(cumsum, u, side="right").  Two calls, not one, because
 * the uniform variate is drawn only after the total proves finite and
 * positive -- consuming the RNG stream identically to the fallback. */
double repro_fkpp_seq_total(const double *mass, int64_t n)
{
    double acc = 0.0;
    int64_t i;
    for (i = 0; i < n; ++i)
        acc += mass[i];
    return acc;
}

int64_t repro_fkpp_draw_scan(const double *mass, int64_t n, double u)
{
    double acc = 0.0;
    int64_t i;
    for (i = 0; i < n; ++i) {
        acc += mass[i];
        if (acc > u)
            return i;
    }
    return n;
}

/* ---------------------------------------------------------------- kmeans++ */

/* The squared distance between two d-vectors, accumulated in exactly the
 * order of this numpy build's einsum("ij,ij->i", delta, delta) row kernel:
 * the SSE2 (vstep 2, no FMA) loop keeps one partial sum per lane -- lane 0
 * the even offsets, lane 1 the odd -- unrolls four vectors and folds them
 * right to left onto the accumulator, then drains pairs and a possible
 * scalar remainder (which contributes an explicit 0.0 to the odd lane)
 * before adding the two lanes.  Compiled with -ffp-contract=off nothing is
 * fused or reassociated, so the result is bit-identical to numpy's. */
static double repro__einsum_sq(const double *p, const double *c, int64_t d)
{
    double l0 = 0.0;
    double l1 = 0.0;
    int64_t t = 0;
    for (; t + 8 <= d; t += 8) {
        const double d0 = p[t] - c[t];
        const double d1 = p[t + 1] - c[t + 1];
        const double d2 = p[t + 2] - c[t + 2];
        const double d3 = p[t + 3] - c[t + 3];
        const double d4 = p[t + 4] - c[t + 4];
        const double d5 = p[t + 5] - c[t + 5];
        const double d6 = p[t + 6] - c[t + 6];
        const double d7 = p[t + 7] - c[t + 7];
        l0 = (d0 * d0) + ((d2 * d2) + ((d4 * d4) + ((d6 * d6) + l0)));
        l1 = (d1 * d1) + ((d3 * d3) + ((d5 * d5) + ((d7 * d7) + l1)));
    }
    for (; t + 2 <= d; t += 2) {
        const double d0 = p[t] - c[t];
        const double d1 = p[t + 1] - c[t + 1];
        l0 = (d0 * d0) + l0;
        l1 = (d1 * d1) + l1;
    }
    if (t < d) {
        const double d0 = p[t] - c[t];
        l0 = (d0 * d0) + l0;
        l1 = 0.0 + l1;
    }
    return l0 + l1;
}

/* 4 (1 + 2^-20), exact in double: the pruning factor of the round below. */
#define REPRO_KPP_PRUNE_FACTOR (4.0 + 0x1p-18)

/* One k-means++ round in a single pass over the points: the squared
 * distance to the new center (einsum-identical, see repro__einsum_sq), the
 * strict-< improvement of the running nearest distance (a tie keeps the
 * older center, like np.where(sq < best, ...)), or on round 0 (`init`) the
 * plain initialisation; then the next draw's D^z mass
 * mass[i] = weights[i] * best (* sqrt(best) for z = 1) and the sequential
 * prefix total of that mass -- the same left-to-right add chain as
 * np.cumsum(mass)[-1], so the caller's finiteness/positivity check and the
 * later first-exceed scan see exactly the numpy path's doubles.
 *
 * The new center is row center_rows[slot] of points, and center_rows[j] is
 * the row of every earlier center j.  After round 0 the round first sets
 * gap[j] to the einsum-replica squared distance between center j and the
 * new center (O(slot * d), never more than the O(n * d) pass), then skips
 * each point that provably cannot strictly improve.  With j = assignment[i]
 * and b = best_squared[i], point i is skipped when
 *   - b == 0.0: the strict sq < b can never fire; or
 *   - b >= DBL_MIN, L = 4 (1 + 2^-20) b is finite, and gap[j] >= L.
 * Why the second rule is exact:
 *   - The triangle inequality gives |x - c| >= |c - c_j| - |x - c_j|, so in
 *     exact arithmetic |c - c_j|^2 >= 4 b rules out a strict improvement
 *     (Elkan's bound, applied to k-means++ seeding as in Raff 2021).
 *   - Each computed squared distance is a sum of d non-negative terms, each
 *     with one rounding per subtract, square and add (-ffp-contract=off, no
 *     fusion), so its relative error is about (d + 2) 2^-53.  The 2^-20
 *     margin absorbs that error on b, on gap[j] and on the point's own sq
 *     for any d below about 2^30, so the computed sq stays >= the computed
 *     b.
 *   - That relative bound needs normal, finite doubles.  b >= DBL_MIN keeps
 *     underflowed distances on the full path, and a finite L keeps
 *     overflowed ones there: at 1e155 coordinates a finite b can sit next
 *     to an infinite gap, and an infinite L would let every infinite gap
 *     through.
 * The numpy round would write the same best_squared, assignment and mass
 * bytes for a skipped point, so the kernel only adds its stored mass[i] --
 * the double the numpy round recomputes -- to the in-order total.  The skip
 * flag is computed without branches and taken as one branch.  *evaluated
 * grows by the number of points whose distance the round computed. */
double repro_kmeanspp_round(const double *points, int64_t n, int64_t d,
                            const int64_t *center_rows, const double *weights,
                            double *best_squared, int64_t *assignment,
                            double *mass, double *gap, int64_t *evaluated,
                            int64_t slot, int z, int init)
{
    const double *center = points + center_rows[slot] * d;
    double total = 0.0;
    int64_t count = 0;
    int64_t i, j;
    if (init) {
        for (i = 0; i < n; ++i) {
            const double sq = repro__einsum_sq(points + i * d, center, d);
            const double m = weights[i] * (z == 2 ? sq : sqrt(sq));
            best_squared[i] = sq;
            assignment[i] = slot;
            mass[i] = m;
            total += m;
        }
        *evaluated += n;
        return total;
    }
    for (j = 0; j < slot; ++j)
        gap[j] = repro__einsum_sq(points + center_rows[j] * d, center, d);
    for (i = 0; i < n; ++i) {
        const double b = best_squared[i];
        const double limit = REPRO_KPP_PRUNE_FACTOR * b;
        const int skip = (b == 0.0)
                         | ((b >= DBL_MIN) & (limit <= DBL_MAX)
                            & (gap[assignment[i]] >= limit));
        double m;
        if (skip) {
            m = mass[i];
        } else {
            const double sq = repro__einsum_sq(points + i * d, center, d);
            double best = b;
            if (sq < b) {
                best_squared[i] = sq;
                assignment[i] = slot;
                best = sq;
            }
            m = weights[i] * (z == 2 ? best : sqrt(best));
            mass[i] = m;
            ++count;
        }
        total += m;
    }
    *evaluated += count;
    return total;
}

/* -------------------------------------------------------------- quadtree */

/* The largest squared distance from the origin row: each point's
 * repro__einsum_sq(points[i], origin), i.e. the numpy fit's
 * einsum("ij,ij->i", points - origin, points - origin).max(), read
 * straight from the points with no translated copy. */
double repro_quadtree_max_sq(const double *points, int64_t n, int64_t d,
                             const double *origin)
{
    double top = 0.0;
    int64_t i;
    for (i = 0; i < n; ++i) {
        const double sq = repro__einsum_sq(points + i * d, origin, d);
        if (sq > top)
            top = sq;
    }
    return top;
}

/* Inputs below this many points are insertion-sorted; larger ones go
 * through the LSD counting passes of repro__sort_range. */
#define REPRO_INSERTION_CAP 32
#define REPRO_RADIX_MAX_BITS 11

/* Stable sort of m (key, point) pairs, ascending by key with ties kept in
 * input order.  `varying` is the OR of every key XOR the AND of every key:
 * the bits on which some keys differ.  Only the window from its lowest to
 * its highest set bit is sorted, in LSD counting passes of about log2(m)
 * bits (capped at 11), skipping any pass whose digit is constant; the
 * passes ping-pong with the scratch arrays and the result is copied back
 * after an odd count.  The 16 KiB histogram lives on the stack, in this
 * frame only: the function is kept out of line so the recursion in
 * repro__refine does not carry it. */
static __attribute__((noinline)) void repro__sort_range(uint64_t *keys, int32_t *points,
                              uint64_t *keys_scratch, int32_t *points_scratch,
                              int64_t m, uint64_t varying)
{
    int64_t count[1 << REPRO_RADIX_MAX_BITS];
    uint64_t *src_keys = keys, *dst_keys = keys_scratch;
    int32_t *src_points = points, *dst_points = points_scratch;
    const int high = 63 - __builtin_clzll(varying);
    int shift = __builtin_ctzll(varying);
    int bits = 63 - __builtin_clzll((uint64_t)m);
    int flipped = 0;
    int64_t i;
    if (m <= REPRO_INSERTION_CAP) {
        for (i = 1; i < m; ++i) {
            const uint64_t key = keys[i];
            const int32_t point = points[i];
            int64_t j = i;
            while (j > 0 && keys[j - 1] > key) {
                keys[j] = keys[j - 1];
                points[j] = points[j - 1];
                --j;
            }
            keys[j] = key;
            points[j] = point;
        }
        return;
    }
    if (bits > REPRO_RADIX_MAX_BITS)
        bits = REPRO_RADIX_MAX_BITS;
    for (; shift <= high; shift += bits) {
        const int64_t buckets = (int64_t)1 << bits;
        const uint64_t mask = (uint64_t)(buckets - 1);
        int64_t running = 0;
        int64_t b;
        memset(count, 0, (size_t)buckets * sizeof(int64_t));
        for (i = 0; i < m; ++i)
            ++count[(src_keys[i] >> shift) & mask];
        if (count[(src_keys[0] >> shift) & mask] == m)
            continue; /* every key shares this digit */
        for (b = 0; b < buckets; ++b) {
            const int64_t c = count[b];
            count[b] = running;
            running += c;
        }
        for (i = 0; i < m; ++i) {
            const int64_t slot = count[(src_keys[i] >> shift) & mask]++;
            dst_keys[slot] = src_keys[i];
            dst_points[slot] = src_points[i];
        }
        {
            uint64_t *swap_keys = src_keys;
            int32_t *swap_points = src_points;
            src_keys = dst_keys;
            dst_keys = swap_keys;
            src_points = dst_points;
            dst_points = swap_points;
        }
        flipped = !flipped;
    }
    if (flipped) {
        memcpy(keys, keys_scratch, (size_t)m * sizeof(uint64_t));
        memcpy(points, points_scratch, (size_t)m * sizeof(int32_t));
    }
}

/* floor(s) for every double, without a libm call: below 2^52 in magnitude
 * a truncation plus a correction for negative non-integers, above it every
 * double is already an integer (NaN and infinities pass through).  The
 * one difference, +0.0 for floor(-0.0), leaves s - floor(s) a zero. */
static inline double repro__floor(double s)
{
    if (fabs(s) < 4503599627370496.0) {
        const double t = (double)(int64_t)s;
        return t - (double)(t > s); /* branch-free: the sign is data */
    }
    return s;
}

/* One quadtree build.  A point's sort key is a sequence of bit planes, most
 * significant first: plane 0 and plane 1 are bit 1 and bit 0 of its level-0
 * cell code (one per coordinate, 0..2: the lattice value plus one), and
 * plane p >= 2 is its level-(p - 1) digit in every coordinate.  A plane
 * reads as the pattern whose bit j is coordinate j's bit, compared as an
 * unsigned number, and it is cut into 64-coordinate words, the highest
 * coordinates first: step s reads word (words - 1 - s % words) of plane
 * s / words. */
typedef struct {
    const uint32_t *digits; /* n x d, left-aligned: level l is bit 32 - l */
    const uint8_t *cells;   /* n x d level-0 cell codes */
    int64_t d, words, steps;
    int32_t *order, *order_scratch;
    int32_t *split;         /* per position: the step that separated it */
    uint64_t *keys, *keys_scratch;
} repro__zorder;

/* Refine the range start..end of z->order, whose points agree on every
 * step before `step`: sort it stably by the step's word, record each new
 * boundary's step in z->split, and recurse into every part, depth first.
 * The last part continues in the loop, as does a range the step leaves
 * whole.  A part only ever writes split entries strictly inside itself. */
static void repro__refine(repro__zorder *z, int64_t start, int64_t end,
                          int64_t step)
{
    const int64_t d = z->d;
    for (; end - start >= 2 && step < z->steps; ++step) {
        const int64_t plane = step / z->words;
        const int64_t first = (z->words - 1 - step % z->words) * 64;
        const int64_t last = (d - first < 64 ? d : first + 64) - 1;
        uint64_t any = 0;
        uint64_t all = ~(uint64_t)0;
        int64_t k, part;
        uint64_t previous;
        if (plane >= 2) {
            const int bit = 33 - (int)plane;
            for (k = start; k < end; ++k) {
                const uint32_t *row = z->digits + z->order[k] * d;
                uint64_t word = 0;
                int64_t j;
                if (k + 8 < end)
                    __builtin_prefetch(z->digits + z->order[k + 8] * d, 0, 1);
                for (j = last; j >= first; --j)
                    word = (word << 1) | ((row[j] >> bit) & 1u);
                z->keys[k] = word;
                any |= word;
                all &= word;
            }
        } else {
            const int bit = 1 - (int)plane;
            for (k = start; k < end; ++k) {
                const uint8_t *row = z->cells + z->order[k] * d;
                uint64_t word = 0;
                int64_t j;
                for (j = last; j >= first; --j)
                    word = (word << 1) | ((row[j] >> bit) & 1u);
                z->keys[k] = word;
                any |= word;
                all &= word;
            }
        }
        if (any == all)
            continue; /* one part: the whole range */
        repro__sort_range(z->keys + start, z->order + start,
                          z->keys_scratch + start, z->order_scratch + start,
                          end - start, any ^ all);
        part = start;
        previous = z->keys[start];
        for (k = start + 1; k < end; ++k) {
            const uint64_t word = z->keys[k];
            if (word != previous) {
                z->split[k] = (int32_t)step;
                repro__refine(z, part, k, step + 1);
                part = k;
                previous = word;
            }
        }
        start = part;
    }
}

/* Build one quadtree's Z-order permutation.  One pass over the points
 * computes, per coordinate, scaled = ((x - origin) + shift) / side, its
 * floor, the level-0 cell code (scaled >= 0) + (scaled >= 1) -- the
 * lattice value plus one for the lattices -1, 0 and 1 a fit produces --
 * and the digit row min((scaled - floor) * 2^depth_cap, 2^depth_cap - 1)
 * truncated to uint32 and left-aligned, every step the numpy path's IEEE
 * operation in the same order.  The clamp runs in double before the cast,
 * so a fractional part that rounded to exactly 1.0 reads as the all-ones
 * row even at depth_cap == 32.  Then every level splits each of its cells
 * stably by the next plane (repro__refine), starting from the input order,
 * so the points end up ordered by level-0 cell code, then by each level's
 * digit pattern, then by input index.
 *
 * On return split[k] (k >= 1) holds the level at which positions k - 1 and
 * k fall into different cells (INT32_MAX: never), counts[l] the cells of
 * level l, and the return value is the depth: the levels up to depth_cap,
 * or up to the first level whose cells are all singletons when that comes
 * first.  1 <= depth_cap <= 32; scratch arrays as below. */
int64_t repro_quadtree_order(const double *points, int64_t n, int64_t d,
                             const double *origin, double shift, double side,
                             int64_t depth_cap, uint32_t *digits,
                             uint8_t *cells, int32_t *order, int32_t *split,
                             uint64_t *keys, uint64_t *keys_scratch,
                             int32_t *order_scratch, int32_t *counts)
{
    const double scale = ldexp(1.0, (int)depth_cap);
    const double top = scale - 1.0;
    const int align = 32 - (int)depth_cap;
    repro__zorder z;
    int64_t i, j, level;
    int64_t deepest = 0;
    for (i = 0; i < n; ++i) {
        const double *row = points + i * d;
        for (j = 0; j < d; ++j) {
            const double s = ((row[j] - origin[j]) + shift) / side;
            const double fl = repro__floor(s);
            double x = (s - fl) * scale;
            if (x > top)
                x = top;
            digits[i * d + j] = (uint32_t)x << align;
            cells[i * d + j] = (uint8_t)((s >= 0.0) + (s >= 1.0));
        }
        order[i] = (int32_t)i;
        split[i] = INT32_MAX;
    }
    z.digits = digits;
    z.cells = cells;
    z.d = d;
    z.words = (d + 63) / 64;
    z.steps = (depth_cap + 2) * z.words;
    z.order = order;
    z.order_scratch = order_scratch;
    z.split = split;
    z.keys = keys;
    z.keys_scratch = keys_scratch;
    repro__refine(&z, 0, n, 0);
    for (i = 1; i < n; ++i) {
        if (split[i] != INT32_MAX) {
            const int64_t plane = split[i] / z.words;
            split[i] = (int32_t)(plane < 2 ? 0 : plane - 1);
            if (split[i] > deepest)
                deepest = split[i];
        } else {
            deepest = depth_cap;
        }
    }
    for (level = 0; level <= deepest; ++level)
        counts[level] = 1;
    for (i = 1; i < n; ++i)
        if (split[i] <= deepest)
            ++counts[split[i]];
    for (level = 1; level <= deepest; ++level)
        counts[level] += counts[level - 1] - 1;
    return deepest + 1;
}

/* The per-level offsets and the inverse permutation of a built order:
 * level l's cells start at 0 and at every position k whose split level is
 * at most l; the level's run in `offsets` starts at starts[l] and ends
 * with n.  position[order[k]] = k.  depth <= 33. */
void repro_quadtree_offsets(const int32_t *order, const int32_t *split,
                            int64_t n, int64_t depth, const int64_t *starts,
                            int32_t *offsets, int32_t *position)
{
    int64_t cursor[33];
    int64_t k, level;
    for (level = 0; level < depth; ++level) {
        offsets[starts[level]] = 0;
        cursor[level] = starts[level] + 1;
    }
    for (k = 1; k < n; ++k)
        for (level = split[k]; level < depth; ++level)
            offsets[cursor[level]++] = (int32_t)k;
    for (level = 0; level < depth; ++level)
        offsets[cursor[level]] = (int32_t)n;
    for (k = 0; k < n; ++k)
        position[order[k]] = (int32_t)k;
}

/* ------------------------------------------------------------ crude-approx */

/* One Crude-Approx (Algorithm 2) occupancy probe, read straight from the
 * points.  Coordinate j of a row lies in lattice cell
 * floor(((x - shift[j]) / diameter) * 2^level): numpy's subtract, divide,
 * power-of-two scale (ldexp is exact) and floor, in that order, so every
 * lattice value is the numpy probe's.  The caller probes only levels whose
 * lattice fits int64, so the cast is defined.  A row hashes on the fly to
 * the numpy probe's uint64 key, the sum of lattice[j] * multipliers[j] with
 * wrapping multiplies.
 *
 * Distinct keys go into a linear-probing table (golden-ratio multiplicative
 * hash on the high bits; table_size a power of two >= 2 min(n, cap), so the
 * load stays at most 50%); every uint64 key value is valid, so occupancy
 * lives in a separate byte array.  The scan stops at the cap-th distinct
 * key: the return value is min(distinct keys, cap), the numpy probe's
 * min(np.unique(keys).size, cap), since distinctness is order-invariant. */
int64_t repro_crude_bound_probe(const double *points, int64_t n, int64_t d,
                                const double *shift, double diameter,
                                int64_t level, const uint64_t *multipliers,
                                int64_t cap, uint64_t *table_keys,
                                uint8_t *table_used, int64_t table_size)
{
    const double scale = ldexp(1.0, (int)level);
    const uint64_t mask = (uint64_t)(table_size - 1);
    const int bits = 63 - __builtin_clzll((uint64_t)table_size);
    int64_t i, j;
    int64_t count = 0;
    memset(table_used, 0, (size_t)table_size);
    for (i = 0; i < n && count < cap; ++i) {
        const double *row = points + i * d;
        uint64_t key = 0;
        uint64_t slot;
        for (j = 0; j < d; ++j) {
            const double s = ((row[j] - shift[j]) / diameter) * scale;
            key += (uint64_t)(int64_t)repro__floor(s) * multipliers[j];
        }
        slot = (key * UINT64_C(0x9E3779B97F4A7C15)) >> (64 - bits);
        for (;;) {
            if (!table_used[slot]) {
                table_used[slot] = 1;
                table_keys[slot] = key;
                ++count;
                break;
            }
            if (table_keys[slot] == key)
                break;
            slot = (slot + 1) & mask;
        }
    }
    return count;
}
"""


def _compiler() -> str:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path is not None:
            return path
    raise RuntimeError("no C compiler (cc/gcc/clang) on PATH")


def _cache_directory() -> Path:
    override = os.environ.get(ENV_CACHE)
    if override:
        directory = Path(override)
        directory.mkdir(parents=True, exist_ok=True)
        return directory
    directory = Path(__file__).resolve().parent / "_build"
    try:
        directory.mkdir(parents=True, exist_ok=True)
        probe = directory / ".write-probe"
        probe.touch()
        probe.unlink()
        return directory
    except OSError:
        # Installed into a read-only site-packages: degrade to a per-process
        # temporary directory (the build costs well under a second).
        return Path(tempfile.mkdtemp(prefix="repro-native-"))


def _build_library() -> Path:
    digest = hashlib.sha256(_SOURCE.encode("utf-8")).hexdigest()[:16]
    directory = _cache_directory()
    library = directory / f"repro_native_{digest}.so"
    if library.exists():
        return library
    compiler = _compiler()
    source = directory / f"repro_native_{digest}.c"
    source.write_text(_SOURCE)
    handle, temporary = tempfile.mkstemp(
        prefix=f"repro_native_{digest}_", suffix=".so", dir=str(directory)
    )
    os.close(handle)
    try:
        completed = subprocess.run(
            [
                compiler,
                "-O3",
                "-ffp-contract=off",  # the bit-identity contract: no FMA fusion
                # Pin hot-loop alignment so adding kernels to the source
                # can't shift the code layout of every later function
                # between builds (keeps benchmark trajectories comparable
                # across otherwise-unrelated kernel additions).
                "-falign-functions=64",
                "-falign-loops=32",
                "-shared",
                "-fPIC",
                "-o",
                temporary,
                str(source),
                "-lm",
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if completed.returncode != 0:
            raise RuntimeError(
                f"{compiler} failed ({completed.returncode}): {completed.stderr.strip()[:500]}"
            )
        os.replace(temporary, library)  # atomic: racing builders converge
    finally:
        if os.path.exists(temporary):
            os.unlink(temporary)
    return library


class KmeansppRounds:
    """``run_round(center_row, slot, init)`` over one seeding call's buffers.

    Each call runs one fused ``repro_kmeanspp_round`` and returns the new
    mass's prefix total.  It reads the new center straight out of
    ``points`` (no ``points[row]`` copy) and writes through the bound
    ``best_squared``/``assignment``/``mass`` in place, so the caller must
    keep using those exact arrays.  The binder records every center's row
    and owns the per-round ``gap`` buffer; both grow by doubling, so it
    needs no ``k``.  A round reads ``gap[assignment[i]]`` and the rows of
    every earlier slot, so rounds must come in order: ``init`` at slot 0,
    then slots 1, 2, ... with ``init`` false (anything else raises
    ``ValueError``).  :attr:`distance_evals` counts the point distances the
    rounds computed so far (``n`` per round without the skip rule).
    """

    def __init__(self, kernel, points, weights, best_squared, assignment, mass, z):
        if points.ndim != 2:
            raise ValueError("kmeans++ points must be two-dimensional")
        n, d = points.shape
        for array in (points, weights, best_squared, mass):
            if array.dtype != np.float64 or not array.flags["C_CONTIGUOUS"]:
                raise ValueError("kmeans++ round arrays must be contiguous float64")
        if assignment.dtype != np.int64 or not assignment.flags["C_CONTIGUOUS"]:
            raise ValueError("kmeans++ assignment must be contiguous int64")
        if any(array.shape[0] != n for array in (weights, best_squared, assignment, mass)):
            raise ValueError("kmeans++ round buffers must have one entry per point")
        self._kernel = kernel
        self._keep = (points, weights, best_squared, assignment, mass)
        self._n, self._d, self._z = n, d, int(z)
        self._pointers = tuple(
            array.ctypes.data for array in (points, weights, best_squared, assignment, mass)
        )
        self._rows = np.empty(16, dtype=np.int64)
        self._gap = np.empty(16, dtype=np.float64)
        self._evaluated = np.zeros(1, dtype=np.int64)
        self._next_slot = 0

    @property
    def distance_evals(self) -> int:
        return int(self._evaluated[0])

    def __call__(self, center_row: int, slot: int, init: bool) -> float:
        center_row, slot = int(center_row), int(slot)
        if not 0 <= center_row < self._n:
            raise IndexError(f"center row {center_row} out of range for {self._n} points")
        if slot != self._next_slot or bool(init) != (slot == 0):
            raise ValueError(
                f"kmeans++ round (slot={slot}, init={bool(init)}) out of order: "
                f"expected slot {self._next_slot} with init={self._next_slot == 0}"
            )
        if slot == self._rows.shape[0]:
            rows = np.empty(2 * slot, dtype=np.int64)
            rows[:slot] = self._rows
            self._rows = rows
            self._gap = np.empty(2 * slot, dtype=np.float64)
        self._rows[slot] = center_row
        p_points, p_weights, p_best, p_assignment, p_mass = self._pointers
        total = self._kernel(
            p_points, self._n, self._d, self._rows.ctypes.data, p_weights, p_best,
            p_assignment, p_mass, self._gap.ctypes.data, self._evaluated.ctypes.data,
            slot, self._z, 1 if init else 0,
        )
        self._next_slot = slot + 1
        return total


def _quadtree_operands(points: np.ndarray, origin: np.ndarray) -> Tuple[int, int]:
    """``(n, d)`` of a quadtree fit's contiguous float64 operands."""
    if points.ndim != 2 or points.dtype != np.float64 or not points.flags["C_CONTIGUOUS"]:
        raise ValueError("quadtree points must be a contiguous two-dimensional float64 array")
    n, d = points.shape
    if origin.shape != (d,) or origin.dtype != np.float64 or not origin.flags["C_CONTIGUOUS"]:
        raise ValueError("quadtree origin must be a contiguous float64 row of the points' width")
    if n > np.iinfo(np.int32).max:
        raise ValueError(f"a quadtree indexes its points with int32, got {n} points")
    return n, d


def load_kernels() -> Dict[str, Callable]:
    """Compile (or reuse) the shared object and bind the kernel wrappers."""
    library = ctypes.CDLL(str(_build_library()))

    i64 = ctypes.c_int64
    f64 = ctypes.c_double
    i32 = ctypes.c_int
    pf64 = ndpointer(np.float64, flags="C_CONTIGUOUS")

    # The pointer-table sweep is bound with raw-pointer argtypes only:
    # ctypes ndpointer validation costs ~3 µs per array argument, which at
    # one call per (tree, center) would eat the kernel's win, and this
    # symbol is reached exclusively through ``fkpp_level_score`` below,
    # which validates and pins every array once per fit.
    center_sweep = library.repro_fkpp_center_sweep
    center_sweep.restype = i64
    center_sweep.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
        i64, i64, ctypes.c_void_p, ctypes.c_void_p, f64, i64,
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, i32,
    ]

    seq_total = library.repro_fkpp_seq_total
    seq_total.restype = f64
    seq_total.argtypes = [pf64, i64]

    draw_scan = library.repro_fkpp_draw_scan
    draw_scan.restype = i64
    draw_scan.argtypes = [pf64, i64, f64]

    # Raw-pointer twins for the per-draw fast path (see ``_fkpp_bind`` for
    # why ndpointer validation is too slow at one call per draw).
    seq_total_fast = library["repro_fkpp_seq_total"]
    seq_total_fast.restype = f64
    seq_total_fast.argtypes = [ctypes.c_void_p, i64]
    draw_scan_fast = library["repro_fkpp_draw_scan"]
    draw_scan_fast.restype = i64
    draw_scan_fast.argtypes = [ctypes.c_void_p, i64, f64]

    # Raw pointers only: the arrays are validated once, when a seeding call
    # binds its buffers (see ``KmeansppRounds``).
    kpp_round = library.repro_kmeanspp_round
    kpp_round.restype = f64
    kpp_round.argtypes = [
        ctypes.c_void_p, i64, i64, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_void_p, i64, i32, i32,
    ]

    # Raw pointers only: ``crude_bound_probe`` checks its operands per call
    # for less than ctypes' ndpointer validation would cost.
    probe = library.repro_crude_bound_probe
    probe.restype = i64
    probe.argtypes = [
        ctypes.c_void_p, i64, i64, ctypes.c_void_p, f64, i64, ctypes.c_void_p, i64,
        ctypes.c_void_p, ctypes.c_void_p, i64,
    ]

    # Raw pointers only: ``quadtree_build`` validates its arrays once per fit.
    max_sq = library.repro_quadtree_max_sq
    max_sq.restype = f64
    max_sq.argtypes = [ctypes.c_void_p, i64, i64, ctypes.c_void_p]
    tree_order = library.repro_quadtree_order
    tree_order.restype = i64
    tree_order.argtypes = [
        ctypes.c_void_p, i64, i64, ctypes.c_void_p, f64, f64, i64,
    ] + [ctypes.c_void_p] * 8
    tree_offsets = library.repro_quadtree_offsets
    tree_offsets.restype = None
    tree_offsets.argtypes = [ctypes.c_void_p, ctypes.c_void_p, i64, i64] + [ctypes.c_void_p] * 3

    def fkpp_level_score(
        order: np.ndarray,
        position: np.ndarray,
        level_offsets,
        distances: np.ndarray,
        czs: np.ndarray,
        best_distance: np.ndarray,
        assignment: np.ndarray,
        mass: np.ndarray,
        weights: np.ndarray,
    ) -> Callable:
        """Build a fit-lifetime sweep closure over one tree's Z-order layout.

        ``order``/``position``/``level_offsets`` are the tree's own int32
        arrays (``order_``/``position_``/``level_offsets_``); the offsets'
        data pointers and cell counts are packed into tables once, so the
        per-center call carries only four scalars.  The kernel itself
        locates the center's cell at every level from its position.
        Pinning every pointer up front keeps the per-call ctypes cost at
        ~2 µs instead of ~3 µs per validated array argument, which at one
        call per (tree, center) decides whether the kernel beats the numpy
        sweep.  The caller owns all arrays for the lifetime of the closure.
        """
        for array in (order, position, *level_offsets):
            if array.dtype != np.int32 or not array.flags["C_CONTIGUOUS"]:
                raise ValueError("fkpp tree arrays must be contiguous int32")
        for array in (distances, czs, best_distance, mass, weights):
            if array.dtype != np.float64 or not array.flags["C_CONTIGUOUS"]:
                raise ValueError("fkpp sweep arrays must be contiguous float64")
        if assignment.dtype != np.int64 or not assignment.flags["C_CONTIGUOUS"]:
            raise ValueError("fkpp assignment must be contiguous int64")
        n = order.shape[0]
        if any(a.shape != (n,) for a in (position, best_distance, assignment, mass, weights)):
            raise ValueError("fkpp sweep arrays must hold one entry per point")
        if any(a.shape[0] < 2 or a[0] != 0 or a[-1] != n for a in level_offsets):
            raise ValueError("fkpp level offsets must run from 0 to the point count")
        depth = len(level_offsets)
        offset_ptrs = np.array([a.ctypes.data for a in level_offsets], dtype=np.uint64)
        cell_counts = np.array([a.shape[0] - 1 for a in level_offsets], dtype=np.int64)
        keep = (
            order, position, tuple(level_offsets), offset_ptrs, cell_counts,
            distances, czs, best_distance, assignment, mass, weights,
        )
        pointers = tuple(
            array.ctypes.data
            for array in (order, position, offset_ptrs, cell_counts)
        )
        p_distances = distances.ctypes.data
        p_czs = czs.ctypes.data
        p_best = best_distance.ctypes.data
        p_assignment = assignment.ctypes.data
        p_mass = mass.ctypes.data
        p_weights = weights.ctypes.data

        def sweep(
            ceiling: float, center_slot: int, center_point: int, has_mass: bool, _keep=keep
        ) -> int:
            return center_sweep(
                *pointers, depth, center_point, p_distances, p_czs, ceiling,
                center_slot, p_best, p_assignment, p_mass, p_weights,
                1 if has_mass else 0,
            )

        return sweep

    def fkpp_weighted_draw(mass: np.ndarray) -> float:
        """Sequential prefix total of ``mass`` (== ``np.cumsum(mass)[-1]``)."""
        return float(seq_total(mass, mass.shape[0]))

    def _draw_scan(mass: np.ndarray, u: float) -> int:
        return int(draw_scan(mass, mass.shape[0], float(u)))

    def _draw_bind(mass: np.ndarray):
        """Pin the mass pointer once; per-draw calls carry only scalars."""
        if mass.dtype != np.float64 or not mass.flags["C_CONTIGUOUS"]:
            raise ValueError("draw mass must be contiguous float64")
        n = int(mass.shape[0])
        p_mass = mass.ctypes.data

        def total(_keep=mass) -> float:
            return seq_total_fast(p_mass, n)

        def scan(u: float, _keep=mass) -> int:
            return draw_scan_fast(p_mass, n, u)

        return total, scan

    fkpp_weighted_draw.scan = _draw_scan
    fkpp_weighted_draw.bind = _draw_bind

    def quadtree_max_squared_norm(points: np.ndarray, origin: np.ndarray) -> float:
        """``einsum("ij,ij->i", points - origin, points - origin).max()``."""
        n, d = _quadtree_operands(points, origin)
        return float(max_sq(points.ctypes.data, n, d, origin.ctypes.data))

    def quadtree_build(
        points: np.ndarray, origin: np.ndarray, shift: float, side: float, depth_cap: int
    ) -> Tuple[np.ndarray, np.ndarray, list]:
        """One fit's int32 ``(order, position, level_offsets)``.

        The level offsets are consecutive views of one buffer.  Work
        arrays: the ``(n, d)`` uint32 digit rows and uint8 level-0 cell
        codes, two uint64 arrays and one int32 array of length ``n``, all
        freed before the offsets are allocated, and the int32 split levels,
        freed once the offsets are written.
        """
        n, d = _quadtree_operands(points, origin)
        depth_cap = int(depth_cap)
        if not 1 <= depth_cap <= 32:
            raise ValueError(f"quadtree_build serves depth caps 1..32, got {depth_cap}")
        order = np.empty(n, dtype=np.int32)
        split = np.empty(n, dtype=np.int32)
        counts = np.empty(depth_cap + 1, dtype=np.int32)
        work = (
            np.empty((n, d), dtype=np.uint32),  # digit rows
            np.empty((n, d), dtype=np.uint8),  # level-0 cell codes
            np.empty(n, dtype=np.uint64),  # plane words
            np.empty(n, dtype=np.uint64),  # plane words, sort scratch
            np.empty(n, dtype=np.int32),  # order, sort scratch
        )
        digits, cells, keys, keys_scratch, order_scratch = (a.ctypes.data for a in work)
        depth = tree_order(
            points.ctypes.data, n, d, origin.ctypes.data, float(shift), float(side),
            depth_cap, digits, cells, order.ctypes.data, split.ctypes.data, keys,
            keys_scratch, order_scratch, counts.ctypes.data,
        )
        del work
        starts = np.zeros(depth + 1, dtype=np.int64)
        np.cumsum(counts[:depth] + 1, out=starts[1:])
        offsets = np.empty(int(starts[-1]), dtype=np.int32)
        position = np.empty(n, dtype=np.int32)
        tree_offsets(
            order.ctypes.data, split.ctypes.data, n, depth, starts.ctypes.data,
            offsets.ctypes.data, position.ctypes.data,
        )
        return order, position, [
            offsets[starts[level] : starts[level + 1]] for level in range(depth)
        ]

    quadtree_build.max_squared_norm = quadtree_max_squared_norm

    def crude_bound_probe(
        points: np.ndarray,
        shift: np.ndarray,
        diameter: float,
        level: int,
        multipliers: np.ndarray,
        cap: int,
    ) -> int:
        """``min(occupied cells, cap)`` at ``level``; see the C comment."""
        if points.ndim != 2 or points.dtype != np.float64 or not points.flags["C_CONTIGUOUS"]:
            raise ValueError("crude-bound points must be a contiguous 2-d float64 array")
        n, d = points.shape
        operands = (("shift", shift, np.float64), ("multipliers", multipliers, np.uint64))
        for name, array, dtype in operands:
            if array.shape != (d,) or array.dtype != dtype or not array.flags["C_CONTIGUOUS"]:
                raise ValueError(
                    f"crude-bound {name} must be a contiguous {dtype.__name__} row of the "
                    "points' width"
                )
        # A power of two above max(64, 2 min(n, cap)): the load stays under 50%.
        table_size = 1 << max(64, 2 * min(n, int(cap))).bit_length()
        keys = np.empty(table_size, dtype=np.uint64)
        used = np.empty(table_size, dtype=np.uint8)
        return int(
            probe(
                points.ctypes.data, n, d, shift.ctypes.data, float(diameter), int(level),
                multipliers.ctypes.data, int(cap), keys.ctypes.data, used.ctypes.data,
                table_size,
            )
        )

    return {
        # The binder: fkpp_level_score(order, position, level_offsets,
        # distances, czs, best_distance, assignment, mass, weights) ->
        # sweep(ceiling, center_slot, center_point, has_mass).
        "fkpp_level_score": fkpp_level_score,
        "fkpp_weighted_draw": fkpp_weighted_draw,
        "crude_bound_probe": crude_bound_probe,
        # The binder: kmeanspp_round(points, weights, best_squared,
        # assignment, mass, z) -> run_round(center_row, slot, init).
        "kmeanspp_round": functools.partial(KmeansppRounds, kpp_round),
        # quadtree_build(points, origin, shift, side, depth_cap) -> (order,
        # position, level_offsets); quadtree_build.max_squared_norm(points,
        # origin) -> the largest squared distance to the origin.
        "quadtree_build": quadtree_build,
    }


def describe() -> Dict[str, object]:
    """Cosmetic provider details for :func:`repro.native.native_status`."""
    try:
        return {"compiler": _compiler()}
    except RuntimeError:
        return {"compiler": None}
