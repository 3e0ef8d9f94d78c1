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
the scalar tail), so the squared distances the Lloyd kernels produce are
bit-identical to the numpy hot path they replace.  The resolution-time
verifiers check exactly that against live numpy calls — on a numpy build
with a different SIMD dispatch the verifier fails and the registry quietly
keeps the numpy path.

Threading: ctypes releases the GIL around every call and the kernels use
only stack and caller-provided memory, so concurrent quadtree fits on the
async thread executor are safe.  The Python wrappers keep their work
buffers in ``threading.local`` storage — reused across calls on the same
thread, never shared between threads.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import numpy as np
from numpy.ctypeslib import ndpointer

#: Build cache override (a directory path).
ENV_CACHE = "REPRO_NATIVE_CACHE"

_SOURCE = r"""
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* ------------------------------------------------------------------ radix */

#define REPRO_RADIX_BITS 11
#define REPRO_RADIX_BUCKETS 2048
#define REPRO_RADIX_PASSES 6
#define REPRO_RADIX_MASK 0x7FFu

/* Stable LSD radix sort of (key, value) pairs, ascending by key with ties
 * kept in input order.  Six 11-bit counting passes ping-pong between the
 * primary and scratch arrays; all histograms are gathered in one pre-pass
 * and any pass whose digit is constant across the input is skipped.
 * Returns 0 when the sorted data ended in the primary arrays and 1 when it
 * ended in the scratch arrays (an even/odd number of executed passes).
 * Only stack memory is used beyond the caller's arrays, so the routine is
 * reentrant (the ~96 KiB of histograms live on the stack). */
static int repro__radix_sort_pairs(uint64_t *keys, int64_t *values,
                                   uint64_t *keys_scratch,
                                   int64_t *values_scratch, int64_t n)
{
    int64_t hist[REPRO_RADIX_PASSES][REPRO_RADIX_BUCKETS];
    int64_t i;
    int pass;
    int flipped = 0;
    uint64_t *src_keys = keys;
    uint64_t *dst_keys = keys_scratch;
    int64_t *src_values = values;
    int64_t *dst_values = values_scratch;
    memset(hist, 0, sizeof(hist));
    for (i = 0; i < n; ++i) {
        const uint64_t key = keys[i];
        for (pass = 0; pass < REPRO_RADIX_PASSES; ++pass)
            ++hist[pass][(key >> (REPRO_RADIX_BITS * pass)) & REPRO_RADIX_MASK];
    }
    for (pass = 0; pass < REPRO_RADIX_PASSES; ++pass) {
        const int64_t *count = hist[pass];
        const int shift = REPRO_RADIX_BITS * pass;
        int64_t offsets[REPRO_RADIX_BUCKETS];
        int64_t running = 0;
        int live = 0;
        int v;
        for (v = 0; v < REPRO_RADIX_BUCKETS; ++v)
            if (count[v] && ++live > 1)
                break;
        if (live <= 1)
            continue; /* every key shares this digit: the pass is identity */
        for (v = 0; v < REPRO_RADIX_BUCKETS; ++v) {
            offsets[v] = running;
            running += count[v];
        }
        for (i = 0; i < n; ++i) {
            const uint64_t key = src_keys[i];
            const int64_t slot = offsets[(key >> shift) & REPRO_RADIX_MASK]++;
            dst_keys[slot] = key;
            dst_values[slot] = src_values[i];
        }
        {
            uint64_t *swap_keys = src_keys;
            int64_t *swap_values = src_values;
            src_keys = dst_keys;
            dst_keys = swap_keys;
            src_values = dst_values;
            dst_values = swap_values;
        }
        flipped = !flipped;
    }
    return flipped;
}

/* Buckets of at most this many pairs are insertion-sorted; larger ones
 * (clustered keys) go through the LSD radix sort, so no input is quadratic. */
#define REPRO_INSERTION_CAP 96
#define REPRO_BUCKET_MAX_BITS 16

/* Stable sort of the pairs (keys[i], i) into sorted_keys/sorted_order.
 *
 * One MSD counting pass scatters the pairs into 2^bits buckets keyed on
 * the bits just below the highest bit where any two keys differ (every key
 * agrees above it, so the bucket index is monotone in the key); bits is
 * chosen for 8 to 16 pairs per bucket and capped at 2^16 buckets.  Each
 * bucket is then sorted in place: insertion sort (strict > shifting, so
 * equal keys keep their input order) up to REPRO_INSERTION_CAP pairs, the
 * radix sort above it.  The scatter walks the input in ascending index
 * order, so the result is the stable argsort permutation.  counts and
 * cursors need 2^bits <= max(1, n/8) entries; keys_scratch/order_scratch
 * length n. */
static void repro__bucket_sort_pairs(const uint64_t *keys, int64_t n,
                                     uint64_t *sorted_keys,
                                     int64_t *sorted_order,
                                     uint64_t *keys_scratch,
                                     int64_t *order_scratch, int64_t *counts,
                                     int64_t *cursors)
{
    uint64_t differ = 0;
    uint64_t mask;
    int64_t buckets, b, i;
    int bits = 0;
    int shift;
    for (i = 1; i < n; ++i)
        differ |= keys[i] ^ keys[0];
    {
        /* Bits at and below the highest differing one (0: a single key,
         * one bucket whose sort moves nothing). */
        const int span = differ ? 64 - __builtin_clzll(differ) : 0;
        while (bits < REPRO_BUCKET_MAX_BITS && bits < span &&
               ((int64_t)16 << bits) <= n)
            ++bits;
        shift = span - bits;
    }
    buckets = (int64_t)1 << bits;
    mask = (uint64_t)(buckets - 1);
    memset(counts, 0, (size_t)buckets * sizeof(int64_t));
    for (i = 0; i < n; ++i)
        ++counts[(keys[i] >> shift) & mask];
    {
        int64_t running = 0;
        for (b = 0; b < buckets; ++b) {
            cursors[b] = running;
            running += counts[b];
        }
    }
    for (i = 0; i < n; ++i) {
        const uint64_t key = keys[i];
        const int64_t slot = cursors[(key >> shift) & mask]++;
        sorted_keys[slot] = key;
        sorted_order[slot] = i;
    }
    /* After the scatter cursors[b] is the end of bucket b. */
    for (b = 0; b < buckets; ++b) {
        const int64_t end = cursors[b];
        const int64_t start = end - counts[b];
        if (end - start > REPRO_INSERTION_CAP) {
            if (repro__radix_sort_pairs(sorted_keys + start, sorted_order + start,
                                        keys_scratch + start,
                                        order_scratch + start, end - start)) {
                memcpy(sorted_keys + start, keys_scratch + start,
                       (size_t)(end - start) * sizeof(uint64_t));
                memcpy(sorted_order + start, order_scratch + start,
                       (size_t)(end - start) * sizeof(int64_t));
            }
            continue;
        }
        for (i = start + 1; i < end; ++i) {
            const uint64_t key = sorted_keys[i];
            const int64_t value = sorted_order[i];
            int64_t j = i;
            while (j > start && sorted_keys[j - 1] > key) {
                sorted_keys[j] = sorted_keys[j - 1];
                sorted_order[j] = sorted_order[j - 1];
                --j;
            }
            sorted_keys[j] = key;
            sorted_order[j] = value;
        }
    }
}

/* Fused grouping: the whole body of quadtree _csr_group in one call.
 *
 * Outputs (all caller-allocated, int32: the caller guarantees n < 2^31):
 * cell_ids[n] gets the rank of each point's key among the distinct keys in
 * ascending unsigned order; order[n] gets the point indices sorted by rank
 * with ties in ascending input order (the stable argsort permutation);
 * offsets[0..m] the CSR boundaries (offsets needs room for n + 1 entries).
 * Returns m, the number of distinct keys.
 *
 * Two strategies, picked at runtime:
 *
 * Hash fast path — when the number of distinct keys m stays at or below
 * n/8 (deep duplicate-heavy levels near the root of the tree), a linear
 * probing table (golden-ratio multiplicative hash on the high bits of
 * table_size, a power of two) maps each key to a first-seen group id in
 * one pass, only the m distinct keys go through the radix sort, and a
 * counting scatter rebuilds order/offsets.  The moment the distinct count
 * exceeds the threshold the path aborts and falls through to the general
 * sort, so adversarial inputs only pay one wasted O(n) probe pass.
 *
 * Sort path — the bucketed sort of (key, index) pairs
 * (repro__bucket_sort_pairs) into the int64 work array `sorted`, then a
 * single fused pass walks the sorted keys emitting boundary offsets,
 * narrowing the sorted order into `order` and scattering the rank through
 * it, replacing the five numpy passes (take/not_equal/cumsum/fancy-store/
 * flatnonzero) that followed the argsort.
 *
 * Work arrays: order_scratch/shadow/shadow_scratch/slot_index/aux/sorted
 * length n, hash_keys/hash_payload length table_size. */
int64_t repro_csr_group_u64(const uint64_t *keys, int64_t n, int32_t *cell_ids,
                            int32_t *order, int32_t *offsets,
                            int64_t *order_scratch, uint64_t *shadow,
                            uint64_t *shadow_scratch, int64_t *slot_index,
                            int64_t *aux, int64_t *sorted, uint64_t *hash_keys,
                            int64_t *hash_payload, int64_t table_size)
{
    const int64_t threshold = n >> 3;
    int64_t i;
    if (threshold > 0) {
        const uint64_t mask = (uint64_t)(table_size - 1);
        int shift = 64;
        int64_t m = 0;
        {
            int64_t t = table_size;
            while (t > 1) {
                t >>= 1;
                --shift;
            }
        }
        memset(hash_payload, 0xFF, (size_t)table_size * sizeof(int64_t));
        for (i = 0; i < n; ++i) {
            const uint64_t key = keys[i];
            uint64_t slot = (key * UINT64_C(0x9E3779B97F4A7C15)) >> shift;
            int64_t gid;
            for (;;) {
                const int64_t payload = hash_payload[slot];
                if (payload < 0) {
                    if (m >= threshold)
                        goto sort_path; /* too many distinct keys */
                    hash_keys[slot] = key;
                    hash_payload[slot] = m;
                    shadow[m] = key;
                    gid = m++;
                    break;
                }
                if (hash_keys[slot] == key) {
                    gid = payload;
                    break;
                }
                slot = (slot + 1) & mask;
            }
            slot_index[i] = gid;
        }
        /* Rank the m distinct keys: sort them with their group ids, then
         * invert into a gid -> rank table (cell_ids doubles as scratch for
         * it -- ranks stay below m <= n/8, so they fit its int32 entries --
         * and the final scatter overwrites every entry). */
        for (i = 0; i < m; ++i)
            order_scratch[i] = i;
        {
            const int flipped = repro__radix_sort_pairs(
                shadow, order_scratch, shadow_scratch, aux, m);
            const int64_t *sorted_gid = flipped ? aux : order_scratch;
            int64_t r;
            for (r = 0; r < m; ++r)
                cell_ids[sorted_gid[r]] = (int32_t)r;
        }
        for (i = 0; i < m; ++i)
            hash_payload[i] = 0; /* reuse as per-rank counts */
        for (i = 0; i < n; ++i) {
            const int64_t r = cell_ids[slot_index[i]];
            slot_index[i] = r;
            ++hash_payload[r];
        }
        {
            int64_t running = 0;
            int64_t r;
            for (r = 0; r < m; ++r) {
                offsets[r] = (int32_t)running;
                aux[r] = running; /* scatter cursor */
                running += hash_payload[r];
            }
            offsets[m] = (int32_t)n;
        }
        for (i = 0; i < n; ++i) {
            const int64_t r = slot_index[i];
            order[aux[r]++] = (int32_t)i;
            cell_ids[i] = (int32_t)r;
        }
        return m;
    }
sort_path:
    repro__bucket_sort_pairs(keys, n, shadow, sorted, shadow_scratch,
                             order_scratch, aux, slot_index);
    {
        int32_t n_cells = 0;
        for (i = 0; i < n; ++i) {
            const int64_t point = sorted[i];
            if (i == 0 || shadow[i] != shadow[i - 1])
                offsets[n_cells++] = (int32_t)i;
            order[i] = (int32_t)point;
            cell_ids[point] = n_cells - 1;
        }
        offsets[n_cells] = (int32_t)n;
        return n_cells;
    }
}

/* -------------------------------------------------------------- quadtree */

/* Level-0 preparation of a quadtree fit in one pass over the
 * origin-translated points: scaled = (translated + shift) / side, the
 * lattice floor(scaled), its multilinear hash key (wrapping uint64 sum of
 * lattice[j] * multipliers[j], i.e. hash_rows), and the digit row
 * min(frac * 2^depth_cap, 2^depth_cap - 1) truncated to uint32 and
 * left-aligned so the level-1 bit is bit 31.  Every step is the numpy
 * path's IEEE operation in the same order (add, divide, floor, subtract
 * the int64 lattice, scale by a power of two); the clamp runs in double
 * before the cast, so a fractional part that rounded to exactly 1.0 reads
 * as the all-ones row even at depth_cap == 32.  1 <= depth_cap <= 32. */
void repro_quadtree_keys_init(const double *translated, int64_t n, int64_t d,
                              double shift, double side, int64_t depth_cap,
                              const uint64_t *multipliers, uint64_t *keys,
                              uint32_t *digits)
{
    const double scale = ldexp(1.0, (int)depth_cap);
    const double top = scale - 1.0;
    const int align = 32 - (int)depth_cap;
    int64_t i, j;
    for (i = 0; i < n; ++i) {
        const double *row = translated + i * d;
        uint32_t *digit_row = digits + i * d;
        uint64_t key = 0;
        for (j = 0; j < d; ++j) {
            const double s = (row[j] + shift) / side;
            const int64_t lattice = (int64_t)floor(s);
            double x = (s - (double)lattice) * scale;
            if (x > top)
                x = top;
            key += (uint64_t)lattice * multipliers[j];
            digit_row[j] = (uint32_t)x << align;
        }
        keys[i] = key;
    }
}

/* One level of the incremental key update, in place:
 * key' = 2 * key + sum_j bit_j * multipliers[j] (mod 2^64), with bit_j
 * bit (32 - level) of the left-aligned digit row -- exactly the hash of
 * the doubled lattice 2 * lattice + bit. */
void repro_quadtree_keys_advance(uint64_t *keys, const uint32_t *digits,
                                 int64_t n, int64_t d, int64_t level,
                                 const uint64_t *multipliers)
{
    const int bit = 32 - (int)level;
    int64_t i, j;
    for (i = 0; i < n; ++i) {
        const uint32_t *digit_row = digits + i * d;
        uint64_t increment = 0;
        for (j = 0; j < d; ++j)
            increment += multipliers[j] & (0 - (uint64_t)((digit_row[j] >> bit) & 1u));
        keys[i] = (keys[i] << 1) + increment;
    }
}

/* ------------------------------------------------------------------ lloyd */

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

/* Fused per-iteration bound refresh of the pruned Lloyd engine: for every
 * point recompute the exact assigned squared distance (einsum-identical),
 * derive the inflated upper bound, erode the cached lower bound by the
 * iteration's largest center drift, and emit the phase-one suspects
 * (upper >= eroded) in ascending order.  squared/eroded are updated in
 * place; returns the suspect count. */
int64_t repro_lloyd_refresh_bounds(const double *points, const double *centers,
                                   const int64_t *assignment, int64_t n,
                                   int64_t d, double decrement,
                                   double upper_scale, double *squared,
                                   double *upper, double *eroded,
                                   int64_t *suspects)
{
    int64_t i;
    int64_t count = 0;
    for (i = 0; i < n; ++i) {
        const double sq =
            repro__einsum_sq(points + i * d, centers + assignment[i] * d, d);
        const double u = sqrt(sq) * upper_scale;
        const double e = eroded[i] - decrement;
        squared[i] = sq;
        upper[i] = u;
        eroded[i] = e;
        if (u >= e)
            suspects[count++] = i;
    }
    return count;
}

/* Per-candidate exact-distance evaluation for Lloyd's warm phase.
 *
 * A candidate of suspect row r is a non-assigned center j whose lower
 * bound bounds[r*k + j] does not exceed upper[r].  A pre-pass counts the
 * candidate pairs and returns -1 when they exceed 4 per suspect on average
 * -- the numpy prove-stay bail, where the blocked kernel is cheaper -- so
 * the caller falls through with the suspect set untouched.
 *
 * Otherwise each suspect's candidates are evaluated with the einsum
 * replica and the suspect is classified:
 *
 *   result[r] = assignment        no candidate reaches the assigned
 *                                 distance within the relative margin (the
 *                                 numpy pass's "stays" set, bit for bit);
 *   result[r] = j (!= assignment) candidate j wins and the runner-up gap
 *                                 clears an absolute-scale guard wide
 *                                 enough that the blocked GEMM argmin
 *                                 (norm expansion, clamping, lowest-index
 *                                 ties) must agree;
 *   result[r] = -1                beaten but ambiguous: the caller routes
 *                                 the suspect through the authoritative
 *                                 blocked kernel.
 *
 * second_sq[r] gets the second-smallest evaluated squared distance (the
 * assigned distance participates; +inf when the suspect stays), from which
 * the caller rebuilds a sound runner-up bound for reassigned points. */
int64_t repro_lloyd_candidate_eval(const double *points, const double *centers,
                                   const double *center_norms, int64_t d,
                                   int64_t k, const int64_t *suspects,
                                   int64_t s, const double *bounds,
                                   const double *upper,
                                   const double *assigned_sq,
                                   const int64_t *assignment, double margin,
                                   int64_t *result, double *second_sq)
{
    int64_t r;
    int64_t pairs = 0;
    for (r = 0; r < s; ++r) {
        const double *bound_row = bounds + r * k;
        const double u = upper[r];
        const int64_t a = assignment[suspects[r]];
        int64_t j;
        for (j = 0; j < k; ++j)
            if (j != a && bound_row[j] <= u)
                ++pairs;
    }
    if (pairs > 4 * s)
        return -1;
    for (r = 0; r < s; ++r) {
        const int64_t i = suspects[r];
        const int64_t a = assignment[i];
        const double *point = points + i * d;
        const double *bound_row = bounds + r * k;
        const double u = upper[r];
        const double asq = assigned_sq[i];
        const double stay_limit = asq * (1.0 + margin);
        double best = asq;
        double second = 1.0 / 0.0;
        double cn_max = center_norms[a];
        int64_t best_j = a;
        int64_t beaten = 0;
        int64_t j;
        for (j = 0; j < k; ++j) {
            double dist;
            if (j == a || bound_row[j] > u)
                continue;
            dist = repro__einsum_sq(point, centers + j * d, d);
            if (dist <= stay_limit)
                ++beaten;
            if (center_norms[j] > cn_max)
                cn_max = center_norms[j];
            if (dist < best) {
                second = best;
                best = dist;
                best_j = j;
            } else if (dist < second) {
                second = dist;
            }
        }
        if (beaten == 0) {
            result[r] = a;
            second_sq[r] = 1.0 / 0.0;
            continue;
        }
        second_sq[r] = second;
        if (best_j != a) {
            /* The guard must dominate the blocked kernel's rounding: its
             * distances come from pn + cn - 2*dot with error on the order
             * of eps * (pn + cn + dist), so a runner-up gap of margin
             * (~1e-9) times that scale leaves the argmin no room to
             * disagree -- including its lowest-index tie-breaking, which
             * needs strict separation, not just a different winner. */
            double pn = 0.0;
            int64_t t;
            for (t = 0; t < d; ++t)
                pn += point[t] * point[t];
            result[r] =
                (second - best > margin * (pn + cn_max + second)) ? best_j : -1;
        } else {
            result[r] = -1;
        }
    }
    return 0;
}

/* ----------------------------------------------------------- fast-kmeans++ */

/* One cell of a Fast-kmeans++ register-center sweep: for every member
 * whose best distance strictly exceeds the candidate, store the candidate,
 * the center slot, and (once the first center's mass vector exists) the
 * mass weights[i] * cz.  `cz` is the caller's precomputed candidate**z --
 * the same double the numpy sweep multiplies by -- so every stored value
 * is bit-identical to the fancy-indexed numpy path (pure per-element
 * gather/compare/scatter; no accumulation, hence no ordering hazard).  The
 * gathers are latency-bound random accesses, so upcoming best-distance
 * entries are software-prefetched.  Returns the improved-point count. */
static int64_t repro__fkpp_sweep_cell(const int32_t *row, int64_t start,
                                      int64_t end, double candidate,
                                      double cz, int64_t center_slot,
                                      double *best_distance,
                                      int64_t *assignment, double *mass,
                                      const double *weights, int has_mass)
{
    int64_t idx;
    int64_t improved = 0;
    if (has_mass) {
        for (idx = start; idx < end; ++idx) {
            const int64_t i = row[idx];
            if (idx + 16 < end)
                __builtin_prefetch(&best_distance[row[idx + 16]], 0, 1);
            if (best_distance[i] > candidate) {
                best_distance[i] = candidate;
                assignment[i] = center_slot;
                mass[i] = weights[i] * cz;
                ++improved;
            }
        }
    } else {
        for (idx = start; idx < end; ++idx) {
            const int64_t i = row[idx];
            if (idx + 16 < end)
                __builtin_prefetch(&best_distance[row[idx + 16]], 0, 1);
            if (best_distance[i] > candidate) {
                best_distance[i] = candidate;
                assignment[i] = center_slot;
                ++improved;
            }
        }
    }
    return improved;
}

/* One Fast-kmeans++ register-center sweep over every level of one tree,
 * driven directly off the quadtree's per-level int32 CSR arrays:
 * order_ptrs/offset_ptrs/cell_ptrs hold one pointer per level (as uint64)
 * into the tree's own level_order_/level_offsets_/level_cell_ids_ arrays,
 * so the sweep needs no concatenated copies and the center's cell lookup
 * (cid = cells[center_point], bounds = offsets[cid], offsets[cid+1])
 * happens here instead of in numpy once per (tree, center).  distances/czs
 * are the per-level candidate distance and the caller's precomputed
 * candidate**z (indexed at level + 1, matching the level-distance table).
 * Levels are scanned deepest first and the scan breaks once the candidate
 * reaches the ceiling (tree distances only grow toward the root) -- the
 * exact control flow of the numpy sweep. */
int64_t repro_fkpp_center_sweep(const uint64_t *order_ptrs,
                                const uint64_t *offset_ptrs,
                                const uint64_t *cell_ptrs, int64_t depth,
                                int64_t center_point, const double *distances,
                                const double *czs, double ceiling,
                                int64_t center_slot, double *best_distance,
                                int64_t *assignment, double *mass,
                                const double *weights, int has_mass)
{
    int64_t level;
    int64_t improved = 0;
    for (level = depth - 1; level >= 0; --level) {
        const double candidate = distances[level + 1];
        if (candidate >= ceiling && isfinite(ceiling))
            break;
        {
            const int32_t *cells =
                (const int32_t *)(uintptr_t)cell_ptrs[level];
            const int32_t *offsets =
                (const int32_t *)(uintptr_t)offset_ptrs[level];
            const int32_t *row =
                (const int32_t *)(uintptr_t)order_ptrs[level];
            const int64_t cid = cells[center_point];
            improved += repro__fkpp_sweep_cell(
                row, offsets[cid], offsets[cid + 1], candidate,
                czs[level + 1], center_slot, best_distance, assignment,
                mass, weights, has_mass);
        }
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

/* ------------------------------------------------------------ crude-approx */

/* One Crude-Approx (Algorithm 2) occupancy probe: refresh the dyadic
 * lattice in place, then count the distinct multilinear row hashes.
 *
 * Fresh levels floor scaled * 2^level (ldexp is exact, and scaling by a
 * power of two commutes with IEEE rounding, so lattice/frac match the
 * numpy floor/subtract pair bit for bit); consecutive levels -- the tail
 * of the bisection -- apply the quadtree's multiply-add doubling
 * (lattice' = 2*lattice + bit, frac' = 2*frac - bit), every step of which
 * is exact.  Lattice doubling is computed in uint64 so it wraps mod 2^64
 * exactly like the numpy int64 ops instead of tripping signed-overflow UB.
 *
 * The hash is the numpy path's uint64 view: sum of lattice[i][j] *
 * multipliers[j] with wrapping multiplies.  Distinct counting uses a
 * linear-probing table (golden-ratio multiplicative hash on the high bits,
 * table_size a power of two >= 2n so load stays under 50%); every uint64
 * key value is valid, so occupancy lives in a separate byte array.  The
 * count equals np.unique(...).shape[0] -- distinctness is order-invariant,
 * which is all the binary search observes. */
int64_t repro_crude_bound_probe(const double *scaled, int64_t n, int64_t d,
                                int64_t level, int fresh, int64_t *lattice,
                                double *frac, const uint64_t *multipliers,
                                uint64_t *table_keys, uint8_t *table_used,
                                int64_t table_size)
{
    const int64_t total = n * d;
    const uint64_t mask = (uint64_t)(table_size - 1);
    int shift = 64;
    int64_t i, j;
    int64_t count = 0;
    if (fresh) {
        const double scale = ldexp(1.0, (int)level);
        for (i = 0; i < total; ++i) {
            const double s = scaled[i] * scale;
            const double fl = floor(s);
            lattice[i] = (int64_t)fl;
            frac[i] = s - fl;
        }
    } else {
        for (i = 0; i < total; ++i) {
            const int bit = frac[i] >= 0.5;
            lattice[i] =
                (int64_t)(((uint64_t)lattice[i] << 1) + (uint64_t)bit);
            frac[i] = 2.0 * frac[i] - (double)bit;
        }
    }
    {
        int64_t t = table_size;
        while (t > 1) {
            t >>= 1;
            --shift;
        }
    }
    memset(table_used, 0, (size_t)table_size);
    for (i = 0; i < n; ++i) {
        const int64_t *row = lattice + i * d;
        uint64_t key = 0;
        uint64_t slot;
        for (j = 0; j < d; ++j)
            key += (uint64_t)row[j] * multipliers[j];
        slot = (key * UINT64_C(0x9E3779B97F4A7C15)) >> shift;
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

/* The M-step accumulation: per-cluster weight totals and weighted
 * coordinate sums, visiting points in ascending index order -- the exact
 * accumulation order of np.bincount over flat (cluster, coordinate) codes,
 * so the partial sums are bit-identical to update_centers' numpy path. */
void repro_lloyd_update_sums(const double *weighted, const double *weights,
                             const int64_t *assignment, int64_t n, int64_t d,
                             int64_t k, double *counts, double *sums)
{
    int64_t i;
    int64_t t;
    memset(counts, 0, (size_t)k * sizeof(double));
    memset(sums, 0, (size_t)(k * d) * sizeof(double));
    for (i = 0; i < n; ++i) {
        const int64_t a = assignment[i];
        const double *row = weighted + i * d;
        double *out = sums + a * d;
        counts[a] += weights[i];
        for (t = 0; t < d; ++t)
            out[t] += row[t];
    }
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


#: Per-thread work buffer cache: the grouping kernels are called once per
#: quadtree level inside threads of the async executor, and reallocating
#: (and page-faulting) half a megabyte of scratch per call costs more than
#: the kernel itself at moderate n.
_LOCAL = threading.local()


def _scratch(name: str, capacity: int, dtype) -> np.ndarray:
    buffers = getattr(_LOCAL, "buffers", None)
    if buffers is None:
        buffers = _LOCAL.buffers = {}
    array = buffers.get(name)
    if array is None or array.shape[0] < capacity:
        array = buffers[name] = np.empty(capacity, dtype=dtype)
    return array


def _hash_table_size(n: int) -> int:
    # Next power of two at or above max(64, n/2): the fast path aborts past
    # n/8 distinct keys, so the table never exceeds 25% load.
    return 1 << max(64, n >> 1).bit_length()


def _group_workspace(n: int) -> tuple:
    """This thread's ``csr_group`` work arrays for up to ``n`` keys.

    Returns ``(capacity, offsets, pointers, arrays)``: the int32 offsets
    buffer (``capacity + 1`` entries), the raw pointers of the kernel's
    int64/uint64 work arrays in argument order (six of length ``capacity``,
    then the two hash-table arrays) and the arrays themselves, kept alive
    here.  The pointers are read once per allocation, not once per level.
    """
    workspace = getattr(_LOCAL, "group", None)
    if workspace is None or workspace[0] < n:
        table_size = _hash_table_size(n)
        arrays = tuple(
            np.empty(length, dtype=dtype)
            for length, dtype in (
                (n, np.int64),  # order_scratch
                (n, np.uint64),  # shadow
                (n, np.uint64),  # shadow_scratch
                (n, np.int64),  # slot_index
                (n, np.int64),  # aux
                (n, np.int64),  # sorted
                (table_size, np.uint64),  # hash_keys
                (table_size, np.int64),  # hash_payload
            )
        )
        offsets = np.empty(n + 1, dtype=np.int32)
        pointers = tuple(array.ctypes.data for array in arrays)
        workspace = _LOCAL.group = (n, offsets, pointers, arrays)
    return workspace


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


def load_kernels() -> Dict[str, Callable]:
    """Compile (or reuse) the shared object and bind the kernel wrappers."""
    library = ctypes.CDLL(str(_build_library()))

    i64 = ctypes.c_int64
    f64 = ctypes.c_double
    i32 = ctypes.c_int
    pi64 = ndpointer(np.int64, flags="C_CONTIGUOUS")
    pu64 = ndpointer(np.uint64, flags="C_CONTIGUOUS")
    pf64 = ndpointer(np.float64, flags="C_CONTIGUOUS")
    pu8 = ndpointer(np.uint8, flags="C_CONTIGUOUS")

    # Raw pointers only: ``csr_group_u64`` checks the keys and allocates
    # every other array itself, so one call per quadtree level costs no
    # per-argument ndpointer validation.
    group = library.repro_csr_group_u64
    group.restype = i64
    group.argtypes = [ctypes.c_void_p, i64] + [ctypes.c_void_p] * 11 + [i64]

    refresh = library.repro_lloyd_refresh_bounds
    refresh.restype = i64
    refresh.argtypes = [pf64, pf64, pi64, i64, i64, f64, f64, pf64, pf64, pf64, pi64]

    candidate = library.repro_lloyd_candidate_eval
    candidate.restype = i64
    candidate.argtypes = [
        pf64, pf64, pf64, i64, i64, pi64, i64, pf64, pf64, pf64, pi64, f64, pi64, pf64,
    ]

    sums_kernel = library.repro_lloyd_update_sums
    sums_kernel.restype = None
    sums_kernel.argtypes = [pf64, pf64, pi64, i64, i64, i64, pf64, pf64]

    # The pointer-table sweep is bound with raw-pointer argtypes only:
    # ctypes ndpointer validation costs ~3 µs per array argument, which at
    # one call per (tree, center) would eat the kernel's win, and this
    # symbol is reached exclusively through ``fkpp_level_score`` below,
    # which validates and pins every array once per fit.
    center_sweep = library.repro_fkpp_center_sweep
    center_sweep.restype = i64
    center_sweep.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, i64, i64,
        ctypes.c_void_p, ctypes.c_void_p, f64, i64, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, i32,
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

    probe = library.repro_crude_bound_probe
    probe.restype = i64
    probe.argtypes = [pf64, i64, i64, i64, i32, pi64, pf64, pu64, pu64, pu8, i64]

    # Raw pointers only: ``quadtree_keys`` validates its arrays once per fit.
    keys_init = library.repro_quadtree_keys_init
    keys_init.restype = None
    keys_init.argtypes = [
        ctypes.c_void_p, i64, i64, f64, f64, i64, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_void_p,
    ]
    keys_advance = library.repro_quadtree_keys_advance
    keys_advance.restype = None
    keys_advance.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, i64, i64, i64, ctypes.c_void_p,
    ]

    def csr_group_u64(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Group ``keys`` (contiguous 1-D uint64, fewer than 2**31 of them:
        the quadtree fit checks its point count) into int32 ``(cell_ids,
        order, offsets)``."""
        if keys.dtype != np.uint64 or keys.ndim != 1 or not keys.flags["C_CONTIGUOUS"]:
            raise ValueError("csr_group keys must be a contiguous 1-D uint64 array")
        n = keys.shape[0]
        if n < 2:
            cell_ids = np.zeros(n, dtype=np.int32)
            order = np.arange(n, dtype=np.int32)
            offsets = np.arange(n + 1, dtype=np.int32)
            return cell_ids, order, offsets
        _, offsets, work, _ = _group_workspace(n)
        cell_ids = np.empty(n, dtype=np.int32)
        order = np.empty(n, dtype=np.int32)
        n_cells = group(
            keys.ctypes.data, n, cell_ids.ctypes.data, order.ctypes.data,
            offsets.ctypes.data, *work, _hash_table_size(n),
        )
        return cell_ids, order, offsets[: n_cells + 1].copy()

    def lloyd_refresh_bounds(
        points: np.ndarray,
        centers: np.ndarray,
        assignment: np.ndarray,
        decrement: float,
        upper_scale: float,
        squared: np.ndarray,
        eroded: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        n, d = points.shape
        upper = np.empty(n, dtype=np.float64)
        suspect_buffer = _scratch("suspects", n, np.int64)
        count = refresh(
            points,
            centers,
            assignment,
            n,
            d,
            float(decrement),
            float(upper_scale),
            squared,
            upper,
            eroded,
            suspect_buffer,
        )
        return upper, suspect_buffer[:count].copy()

    def lloyd_candidate_eval(
        points: np.ndarray,
        centers: np.ndarray,
        center_norms: np.ndarray,
        suspects: np.ndarray,
        bounds: np.ndarray,
        upper: np.ndarray,
        assigned_sq: np.ndarray,
        assignment: np.ndarray,
        margin: float,
    ) -> Optional[tuple]:
        s = suspects.shape[0]
        result = np.empty(s, dtype=np.int64)
        second_sq = np.empty(s, dtype=np.float64)
        if s == 0:
            return result, second_sq
        outcome = candidate(
            points,
            centers,
            center_norms,
            points.shape[1],
            centers.shape[0],
            suspects,
            s,
            bounds,
            upper,
            assigned_sq,
            assignment,
            float(margin),
            result,
            second_sq,
        )
        if outcome == -1:
            return None  # bounds too weak: caller keeps the blocked path
        return result, second_sq

    def lloyd_update_sums(
        weighted: np.ndarray,
        weights: np.ndarray,
        assignment: np.ndarray,
        k: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        n, d = weighted.shape
        counts = np.empty(k, dtype=np.float64)
        sums = np.empty((k, d), dtype=np.float64)
        sums_kernel(weighted, weights, assignment, n, d, k, counts, sums.reshape(-1))
        return counts, sums

    def fkpp_level_score(
        level_orders,
        level_offsets,
        level_cells,
        n: int,
        distances: np.ndarray,
        czs: np.ndarray,
        best_distance: np.ndarray,
        assignment: np.ndarray,
        mass: np.ndarray,
        weights: np.ndarray,
    ) -> Callable:
        """Build a fit-lifetime sweep closure over one tree's CSR arrays.

        ``level_orders``/``level_offsets``/``level_cells`` are the tree's own
        per-level int32 arrays (``level_order_``/``level_offsets_``/
        ``level_cell_ids_``); their data pointers are packed into uint64
        tables once, so the per-center call carries only four scalars.  The
        kernel itself locates the center's cell at every level — no
        concatenated copies of the tree and no per-center numpy indexing.
        Pinning every pointer up front drops the per-call ctypes cost from
        ~34 µs (ndpointer validation of seven array arguments) to ~2 µs —
        the difference between the kernel beating the numpy sweep and
        losing to it at one call per (tree, center).  The caller owns all
        arrays for the lifetime of the closure.
        """
        for sequence in (level_orders, level_offsets, level_cells):
            for array in sequence:
                if array.dtype != np.int32 or not array.flags["C_CONTIGUOUS"]:
                    raise ValueError("fkpp tree arrays must be contiguous int32")
        for array in (distances, czs, best_distance, mass, weights):
            if array.dtype != np.float64 or not array.flags["C_CONTIGUOUS"]:
                raise ValueError("fkpp sweep arrays must be contiguous float64")
        if assignment.dtype != np.int64 or not assignment.flags["C_CONTIGUOUS"]:
            raise ValueError("fkpp assignment must be contiguous int64")
        depth = len(level_orders)
        order_ptrs = np.array([a.ctypes.data for a in level_orders], dtype=np.uint64)
        offset_ptrs = np.array([a.ctypes.data for a in level_offsets], dtype=np.uint64)
        cell_ptrs = np.array([a.ctypes.data for a in level_cells], dtype=np.uint64)
        keep = (
            tuple(level_orders), tuple(level_offsets), tuple(level_cells),
            order_ptrs, offset_ptrs, cell_ptrs,
            distances, czs, best_distance, assignment, mass, weights,
        )
        p_orders = order_ptrs.ctypes.data
        p_offsets = offset_ptrs.ctypes.data
        p_cells = cell_ptrs.ctypes.data
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
                p_orders, p_offsets, p_cells, depth, center_point,
                p_distances, p_czs, ceiling, center_slot, p_best,
                p_assignment, p_mass, p_weights, 1 if has_mass else 0,
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

    def quadtree_keys(
        translated: np.ndarray,
        shift: float,
        side: float,
        depth_cap: int,
        multipliers: np.ndarray,
        keys: np.ndarray,
    ) -> Callable:
        """Write one fit's level-0 keys into ``keys``; return ``advance(level)``.

        The bind call hashes ``floor((translated + shift) / side)`` into
        ``keys`` and keeps the left-aligned ``uint32`` digit rows in a
        private buffer; ``advance(level)`` then derives the level's keys
        from the previous level's in place.  The caller must keep using
        the same ``keys`` array and call ``advance`` for levels 1, 2, ...
        in order.
        """
        if translated.ndim != 2:
            raise ValueError("quadtree points must be two-dimensional")
        n, d = translated.shape
        if translated.dtype != np.float64 or not translated.flags["C_CONTIGUOUS"]:
            raise ValueError("quadtree points must be contiguous float64")
        for array, length in ((multipliers, d), (keys, n)):
            if (
                array.dtype != np.uint64
                or not array.flags["C_CONTIGUOUS"]
                or array.shape != (length,)
            ):
                raise ValueError("quadtree keys/multipliers must be contiguous uint64")
        depth_cap = int(depth_cap)
        if not 1 <= depth_cap <= 32:
            raise ValueError(f"quadtree_keys serves depth caps 1..32, got {depth_cap}")
        digits = np.empty((n, d), dtype=np.uint32)
        keep = (translated, multipliers, keys, digits)
        p_multipliers = multipliers.ctypes.data
        p_keys = keys.ctypes.data
        p_digits = digits.ctypes.data
        keys_init(
            translated.ctypes.data, n, d, float(shift), float(side), depth_cap,
            p_multipliers, p_keys, p_digits,
        )

        def advance(level: int, _keep=keep) -> None:
            level = int(level)
            if not 1 <= level <= depth_cap:
                raise ValueError(f"level {level} outside 1..{depth_cap}")
            keys_advance(p_keys, p_digits, n, d, level, p_multipliers)

        return advance

    def crude_bound_probe(
        scaled: np.ndarray,
        level: int,
        fresh: bool,
        lattice: np.ndarray,
        frac: np.ndarray,
        multipliers: np.ndarray,
    ) -> int:
        n, d = scaled.shape
        if n == 0:
            return 0
        # Power-of-two table at or above max(64, 2n): load stays under 50%.
        table_size = 1 << max(64, 2 * n).bit_length()
        return int(
            probe(
                scaled,
                n,
                d,
                int(level),
                1 if fresh else 0,
                lattice,
                frac,
                multipliers,
                _scratch("crude_keys", table_size, np.uint64),
                _scratch("crude_used", table_size, np.uint8),
                table_size,
            )
        )

    return {
        "csr_group": csr_group_u64,
        "lloyd_refresh_bounds": lloyd_refresh_bounds,
        "lloyd_candidate_eval": lloyd_candidate_eval,
        "lloyd_update_sums": lloyd_update_sums,
        # The binder: fkpp_level_score(level_orders, level_offsets,
        # level_cells, n, distances, czs, best_distance, assignment, mass,
        # weights) -> sweep(ceiling, center_slot, center_point, has_mass).
        "fkpp_level_score": fkpp_level_score,
        "fkpp_weighted_draw": fkpp_weighted_draw,
        "crude_bound_probe": crude_bound_probe,
        # The binder: kmeanspp_round(points, weights, best_squared,
        # assignment, mass, z) -> run_round(center_row, slot, init).
        "kmeanspp_round": functools.partial(KmeansppRounds, kpp_round),
        "quadtree_keys": quadtree_keys,
    }


def describe() -> Dict[str, object]:
    """Cosmetic provider details for :func:`repro.native.native_status`."""
    try:
        return {"compiler": _compiler()}
    except RuntimeError:
        return {"compiler": None}
