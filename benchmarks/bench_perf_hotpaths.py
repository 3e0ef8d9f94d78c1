"""Perf-regression harness for the library's tracked hot paths.

Times the *frozen reference implementations* (:mod:`repro.reference`)
against the optimized live implementations **in the same run**, on the same
synthetic workloads and hardware, and writes a machine-readable
``BENCH_hotpaths.json`` at the repository root.  Every future perf PR is
judged against that trajectory: ``make bench`` re-runs this script with
``--check-regression``, which refuses to overwrite the JSON when the
optimized time of any tracked workload regresses by more than
``REGRESSION_TOLERANCE`` (20%), and ``make bench-check`` replays the
tracked workloads without touching the JSON at all (``--check-only``).
Replays use the same best-of-3 timing as recording: a best-of-1 replay
against a best-of-3 recording is systematically slower and turns host
timing noise into spurious gate failures.

Measured components per ``(n, d, k)`` workload:

* ``quadtree_fit`` — one tree fit (CSR grouping + distance table vs the
  seed's dict-of-arrays Python grouping loop).
* ``fast_kmeans_pp`` — the full multi-tree seeding (shared spread,
  incremental D²-mass, searchsorted draws vs per-center recompute +
  ``generator.choice``).
* ``lloyd`` — a fixed-iteration Lloyd refinement (Hamerly-bounded pruning +
  warm-started assignments vs the frozen full-recompute loop; the two are
  bit-identical, so the comparison times pure pruning).
* ``merge_reduce`` — a full merge-&-reduce stream with a Fast-Coreset
  sampler (shared cached spread vs the frozen two-estimates-per-compression
  baseline).
* ``merge_reduce_streamkm`` — one StreamKM++ coreset-tree reduction
  (batched envelope draws + incremental assignment vs sequential seeding +
  a second full distance block).
* ``parallel_shard`` — sharded Fast-Coreset construction through the
  parallel execution engine: the shared-memory process backend at the
  row's worker count (the ``k`` column) vs the serial executor on the same
  fixed shard layout.  Both sides produce bit-identical coresets, so the
  ratio times pure execution overhead/speedup; the achievable speedup is
  capped by the machine's core count (a single-core CI box records ~1x).
* ``overlap_reduce`` — the overlapped-reduction streaming pipeline (every
  merge-&-reduce fold submitted to the async pool the moment both inputs
  exist, chained on their futures) vs the identical async pipeline with
  ``overlap_reduces=False`` (leaves overlap, every reduce on the host
  thread — the PR-4 behaviour).  Bit-identical coresets; the ratio times
  the removal of the host-thread reduce floor, and the rows additionally
  record ``host_reduce_seconds`` (optimized) next to
  ``host_reduce_seconds_baseline`` so the trajectory shows the floor
  itself shrinking, not just the ratio.
* ``quadtree_fit_incr`` — the constant-factor sweep of the fit (incremental
  compact keys off the one-shot digit matrix, packbits pattern LUTs,
  buffer-reusing CSR grouping) vs the frozen PR-1..4 fit
  (:class:`~repro.reference.presweep_hotpath.PreSweepQuadtreeEmbedding`:
  per-level ``hash_rows`` over a doubled lattice).  Bit-identical trees;
  both sides pay the same live spread estimate.
* ``lloyd_fused`` — the fused suspect kernel + epoch-anchored cumulative
  drift bounds + flat-bincount M-step vs the frozen PR-2 pruned engine
  (:func:`~repro.reference.presweep_hotpath.presweep_kmeans`).
  Bit-identical results; the ratio times pure bound quality and
  constant-factor work per iteration.
* ``merge_reduce_cached_bound`` — the streaming pipeline with the
  per-stream crude-cost-bound cache (one Algorithm-2 binary search per
  refresh, shared with the spread cache's signal) vs the identical
  pipeline with the cache disabled (one search per compression).
* ``windowed_stream_slide`` / ``windowed_stream_decay`` — the dashboard
  pattern (one window query after every block) on the windowed
  merge-&-reduce tree (incremental stamped buckets, folds over compressed
  summaries) vs :class:`~repro.reference.naive_window.NaiveWindowReference`
  recomputing the window from retained raw blocks and compressing it from
  scratch at every query — what a consumer without the tree would pay for
  the same per-block coreset freshness.
* ``quadtree_fit_native`` — the fit with the compiled grouping kernel
  (fused radix/hash ``csr_group``) vs the frozen PR-5/6 numpy fit
  (:class:`~repro.reference.prenative_hotpath.PreNativeQuadtreeEmbedding`:
  ``np.argsort(kind="stable")`` + the five-pass numpy CSR pipeline).
  Bit-identical trees; the rows record the serving kernel tier and are
  demoted to ``informational`` when the tier is in fallback mode (the
  ratio would then time numpy against itself).
* ``lloyd_native`` — the pruned engine with the compiled warm-phase
  kernels (fused einsum-replica bound refresh, per-candidate evaluation
  with guarded direct reassignment, native M-step sums) vs the frozen
  PR-5/6 numpy engine
  (:func:`~repro.reference.prenative_hotpath.prenative_kmeans`).
  Bit-identical centers/assignments/costs; same fallback demotion as
  ``quadtree_fit_native``.
* ``fastkpp_native`` — the full multi-tree seeding with the compiled
  Fast-kmeans++ kernels (pointer-table level sweeps resolving the center's
  cell per level in C, sequential-prefix D² draws) vs the frozen PR-9
  numpy seeding
  (:func:`~repro.reference.prekernel_hotpath.prekernel_fast_kmeans_plus_plus`:
  per-level fancy-indexed sweeps + cumsum/searchsorted draws).
  Bit-identical draws/centers/assignments/costs; both sides pay the same
  live tree fits; same fallback demotion as ``quadtree_fit_native``.
* ``crude_bound_native`` — several full Algorithm-2 binary searches with
  the compiled occupancy probe (fused lattice refresh + linear-probing
  distinct count) vs the frozen PR-9 numpy probes
  (:func:`~repro.reference.prekernel_hotpath.prekernel_crude_cost_upper_bound`).
  Identical bounds; the spread is precomputed once and passed to both
  sides so the ratio times the probe-dominated fold itself; same fallback
  demotion.  ``--components native`` selects all four compiled-tier rows.

Multi-worker rows (``parallel_shard`` / ``overlap_reduce`` beyond one
worker) record a ``cores`` field and are
marked ``informational`` when the
recording machine has fewer cores than the row's worker count: a pool
cannot beat serial execution without cores to run on, so such rows are
excluded from the regression guard instead of hiding behind a widened
tolerance.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_hotpaths.py [--full]
        [--repeats R] [--check-regression] [--check-only]
        [--workloads NAME [NAME ...]] [--output PATH]

The quick (tracked) suite runs by default; ``--full`` adds larger sweeps.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro import observability
from repro.clustering.fast_kmeans_pp import fast_kmeans_plus_plus
from repro.clustering.lloyd import kmeans
from repro.core.fast_coreset import FastCoreset
from repro.core.spread_reduction import crude_cost_upper_bound
from repro.data.synthetic import gaussian_mixture
from repro.geometry.quadtree import QuadtreeEmbedding, compute_spread
from repro.parallel import (
    ProcessAsyncExecutor,
    SerialAsyncExecutor,
    ShardedCoresetBuilder,
    ThreadAsyncExecutor,
)
from repro.native import native_status
from repro.reference.naive_lloyd import naive_kmeans
from repro.reference.prekernel_hotpath import (
    prekernel_crude_cost_upper_bound,
    prekernel_fast_kmeans_plus_plus,
)
from repro.reference.prenative_hotpath import PreNativeQuadtreeEmbedding, prenative_kmeans
from repro.reference.presweep_hotpath import PreSweepQuadtreeEmbedding, presweep_kmeans
from repro.reference.seed_hotpath import SeedQuadtreeEmbedding, seed_fast_kmeans_plus_plus
from repro.reference.naive_window import NaiveWindowReference
from repro.reference.seed_streaming import (
    seed_compute_spread,
    seed_stream_coreset,
    seed_streamkm_reduce,
)
from repro.streaming.merge_reduce import StreamingCoresetPipeline, stream_dataset
from repro.streaming.stream import DataStream
from repro.streaming.streamkm import StreamKMPlusPlus
from repro.streaming.window import (
    ExponentialDecay,
    SlidingCountWindow,
    WindowedMergeReduceTree,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_hotpaths.json"

#: Refuse to record a run where any tracked workload got this much slower.
REGRESSION_TOLERANCE = 0.20

#: Per-component overrides of the guard tolerance.  The ``parallel_shard``
#: ratio divides a process-pool wall-clock by a serial one, so OS scheduling
#: jitter hits only its numerator: on a busy or even adequately-cored runner
#: the best-of-R ratio routinely swings ±50% with zero code change
#: (measured: 1.24 vs 1.80 across idle/busy runs of an identical build).
#: The wide tolerance keeps the rows guarded against catastrophic
#: regressions (a doubled ratio) without turning scheduler noise into a red
#: gate.  Rows whose worker count exceeds the recording
#: machine's core count are excluded from the guard entirely (marked
#: ``informational`` at record time) — a pool cannot beat serial execution
#: without cores to run on, so their ratios are pure noise.
#: The windowed-stream rows time 16 queries x 2 sampler compressions per
#: side, each individually allocator/cache-state sensitive, and the
#: recorded best-of-3 ratio was historically replayed by ``make
#: bench-check`` at best-of-1 — observed no-change swings reached ~+33%
#: (the checks now replay at best-of-3 too).  The widened (but
#: still blocking) tolerance keeps the rows guarding the failure mode that
#: matters: losing the incremental window maintenance pushes the ratio
#: from ~0.45 toward 1.0 (>+100%).
COMPONENT_TOLERANCE = {
    "parallel_shard": 1.00,
    "overlap_reduce": 1.00,
    "windowed_stream_slide": 0.50,
    "windowed_stream_decay": 0.50,
}

#: Components whose rows depend on real hardware concurrency: the ``k``
#: column carries the worker count, and rows recorded with fewer cores than
#: workers are stamped ``informational``.
PARALLEL_COMPONENTS = {"parallel_shard", "overlap_reduce"}

#: Components whose optimized side is the compiled kernel tier.  Rows are
#: stamped ``informational`` when the tier resolves to fallback mode (no
#: compiler, no numba, or ``REPRO_NATIVE=0``): the ratio would then compare
#: the numpy paths against themselves and guard nothing.
NATIVE_COMPONENTS = {
    "quadtree_fit_native",
    "lloyd_native",
    "fastkpp_native",
    "crude_bound_native",
}

#: Binary-search folds per ``crude_bound_native`` timing (one fold = one
#: full Algorithm-2 search; several folds lift the row out of timer noise).
CRUDE_BOUND_FOLDS = 8

#: ``--components`` group aliases, expanded before filtering.
COMPONENT_GROUPS = {"native": sorted(NATIVE_COMPONENTS)}


def available_cores() -> int:
    """Cores usable by this process (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1

#: Lloyd workloads run up to this many iterations with tolerance 0 (the
#: library's default ``max_iterations``) so both engines do an identical —
#: and realistically long — amount of refinement work.
LLOYD_ITERATIONS = 50

#: Streaming workloads: block count of the merge-&-reduce tree and target
#: size (the paper's ``m = 40k`` default).
STREAM_BLOCKS = 16

#: Windowed-stream workloads: sliding-window width (blocks) and decay
#: half-life (block stamps) of the per-block-query rows.
WINDOW_BLOCKS = 8
DECAY_HALF_LIFE = 4.0

#: Sharded-construction workloads: fixed shard layout and compression
#: parameters.  The shard count keys the coreset, so every row (any worker
#: count, either backend) builds the identical compression.
PARALLEL_SHARDS = 4
PARALLEL_K = 10

#: (name, n, d, k, component).  The ``quick`` suite is the tracked set every
#: PR must hold; ``--full`` adds larger sweeps for local investigation.
QUICK_WORKLOADS = [
    ("fast_kmeans_pp_n10k_d5_k50", 10_000, 5, 50, "fast_kmeans_pp"),
    ("fast_kmeans_pp_n50k_d10_k100", 50_000, 10, 100, "fast_kmeans_pp"),
    ("fast_kmeans_pp_n20k_d20_k64", 20_000, 20, 64, "fast_kmeans_pp"),
    ("quadtree_fit_n50k_d10", 50_000, 10, 0, "quadtree_fit"),
    ("quadtree_fit_n20k_d20", 20_000, 20, 0, "quadtree_fit"),
    ("lloyd_n20k_d10_k50", 20_000, 10, 50, "lloyd"),
    ("lloyd_n20k_d10_k100", 20_000, 10, 100, "lloyd"),
    ("merge_reduce_n40k_d10_k10", 40_000, 10, 10, "merge_reduce"),
    ("merge_reduce_streamkm_n20k_d10_m400", 20_000, 10, 400, "merge_reduce_streamkm"),
    # Constant-factor sweep rows: the frozen previously-optimized
    # implementations (repro.reference.presweep_hotpath) are the baseline.
    ("quadtree_fit_incr_n50k_d20", 50_000, 20, 0, "quadtree_fit_incr"),
    ("quadtree_fit_incr_n20k_d30", 20_000, 30, 0, "quadtree_fit_incr"),
    ("lloyd_fused_n80k_d10_k20", 80_000, 10, 20, "lloyd_fused"),
    ("lloyd_fused_n100k_d10_k20", 100_000, 10, 20, "lloyd_fused"),
    ("merge_reduce_cached_bound_n40k_d10_k10", 40_000, 10, 10, "merge_reduce_cached_bound"),
    # Windowed streams, queried after every block; the naive
    # recompute-from-window oracle is the baseline.
    ("windowed_stream_slide_n40k_d10_k10", 40_000, 10, 10, "windowed_stream_slide"),
    ("windowed_stream_decay_n40k_d10_k10", 40_000, 10, 10, "windowed_stream_decay"),
    # Compiled-tier rows: the frozen PR-5/6 numpy hot paths
    # (repro.reference.prenative_hotpath) are the baseline.
    ("quadtree_fit_native_n50k_d10", 50_000, 10, 0, "quadtree_fit_native"),
    ("lloyd_native_n80k_d10_k20", 80_000, 10, 20, "lloyd_native"),
    # Fast-kmeans++ / Algorithm-2 compiled-tier rows: the frozen PR-9
    # numpy hot paths (repro.reference.prekernel_hotpath) are the baseline.
    ("fastkpp_native_n50k_d10_k300", 50_000, 10, 300, "fastkpp_native"),
    ("crude_bound_native_n40k_d10_k10", 40_000, 10, 10, "crude_bound_native"),
    # The k column carries the process-backend worker count for these rows.
    ("parallel_shard_n200k_d10_w1", 200_000, 10, 1, "parallel_shard"),
    ("parallel_shard_n200k_d10_w2", 200_000, 10, 2, "parallel_shard"),
    ("parallel_shard_n200k_d10_w4", 200_000, 10, 4, "parallel_shard"),
    # The k column carries the async worker count; overlapped reduces vs
    # the leaf-only-async pipeline at the same worker count.
    ("overlap_reduce_n40k_d10_w1", 40_000, 10, 1, "overlap_reduce"),
    ("overlap_reduce_n40k_d10_w2", 40_000, 10, 2, "overlap_reduce"),
    ("overlap_reduce_n40k_d10_w4", 40_000, 10, 4, "overlap_reduce"),
]
FULL_EXTRA = [
    ("fast_kmeans_pp_n100k_d10_k200", 100_000, 10, 200, "fast_kmeans_pp"),
    ("quadtree_fit_n100k_d10", 100_000, 10, 0, "quadtree_fit"),
    ("lloyd_n50k_d10_k100", 50_000, 10, 100, "lloyd"),
    ("merge_reduce_n100k_d10_k20", 100_000, 10, 20, "merge_reduce"),
]


def _workload_points(n: int, d: int, seed: int = 1) -> np.ndarray:
    clusters = max(2, min(50, n // 200))
    return gaussian_mixture(n=n, d=d, n_clusters=clusters, gamma=0.0, seed=seed).points


def _kernel_tier_extras(kernel: str) -> dict:
    """Attribution columns for compiled-tier rows: which tier and provider
    produced the optimized timing (recorded numbers are meaningless without
    it), plus the numba version when that provider is importable."""
    status = native_status()
    return {
        "kernel_tier": status["tier"],
        "kernel_provider": status["kernels"][kernel]["provider"],
        "numba_version": status["providers"].get("numba", {}).get("numba_version"),
    }


def run_workload(
    name: str, n: int, d: int, k: int, component: str, repeats: int, spans: bool = False
) -> dict:
    points = _workload_points(n, d)
    extras: dict = {}
    optimized_fn = None
    pair: dict = {}
    # Closers for resources a branch keeps open across the interleaved
    # repeats and the --spans re-run (the process pool).
    cleanup: list = []

    def _one_shot(fn) -> float:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    def _timed(fn, timed_repeats):
        # Remember the optimized-side callable so --spans can re-run it once
        # under tracing AFTER the timed repeats (tracing never pollutes the
        # recorded seconds).  Every branch times its optimized side first.
        nonlocal optimized_fn
        if optimized_fn is None:
            optimized_fn = fn
        # Run once now (branches read side effects — diagnostics dicts —
        # right after), register the callable, and let the interleaved loop
        # below supply the remaining repeats.
        pair["optimized"] = (fn, timed_repeats)
        return _one_shot(fn)

    def _best_of(fn, timed_repeats):
        # Shadows the module-level helper for the seed side of the pair:
        # same run-once-and-register contract as ``_timed``.
        pair["seed"] = (fn, timed_repeats)
        return _one_shot(fn)
    if component == "fast_kmeans_pp":
        optimized = _timed(lambda: fast_kmeans_plus_plus(points, k, seed=0), repeats)
        seed_time = _best_of(
            lambda: seed_fast_kmeans_plus_plus(
                points, k, seed=0, spread_function=seed_compute_spread
            ),
            repeats,
        )
    elif component == "quadtree_fit":
        optimized = _timed(lambda: QuadtreeEmbedding(seed=0).fit(points), repeats)
        seed_time = _best_of(
            lambda: SeedQuadtreeEmbedding(
                seed=0, spread_function=seed_compute_spread
            ).fit(points),
            repeats,
        )
    elif component == "quadtree_fit_incr":
        optimized = _timed(lambda: QuadtreeEmbedding(seed=0).fit(points), repeats)
        # The baseline is the frozen PR-1..4 fit; both sides pay the same
        # (live) spread estimator, so the ratio times the sweep itself.
        seed_time = _best_of(
            lambda: PreSweepQuadtreeEmbedding(seed=0).fit(points), repeats
        )
    elif component == "lloyd_fused":
        initial = points[np.random.default_rng(5).choice(n, size=k, replace=False)]
        optimized = _timed(
            lambda: kmeans(
                points,
                k,
                initial_centers=initial,
                max_iterations=LLOYD_ITERATIONS,
                tolerance=0.0,
                seed=0,
            ),
            repeats,
        )
        seed_time = _best_of(
            lambda: presweep_kmeans(
                points,
                k,
                initial_centers=initial,
                max_iterations=LLOYD_ITERATIONS,
                tolerance=0.0,
                seed=0,
            ),
            repeats,
        )
    elif component == "quadtree_fit_native":
        optimized = _timed(lambda: QuadtreeEmbedding(seed=0).fit(points), repeats)
        # Baseline: the frozen PR-5/6 numpy fit (stable argsort + five-pass
        # CSR pipeline); both sides pay the same live spread estimator.
        seed_time = _best_of(
            lambda: PreNativeQuadtreeEmbedding(seed=0).fit(points), repeats
        )
        extras.update(_kernel_tier_extras("csr_group"))
    elif component == "lloyd_native":
        initial = points[np.random.default_rng(5).choice(n, size=k, replace=False)]
        optimized = _timed(
            lambda: kmeans(
                points,
                k,
                initial_centers=initial,
                max_iterations=LLOYD_ITERATIONS,
                tolerance=0.0,
                seed=0,
            ),
            repeats,
        )
        # Baseline: the frozen PR-5/6 numpy pruned engine (clear-only
        # prove-stay, separate refresh/erode/bincount passes).
        seed_time = _best_of(
            lambda: prenative_kmeans(
                points,
                k,
                initial_centers=initial,
                max_iterations=LLOYD_ITERATIONS,
                tolerance=0.0,
                seed=0,
            ),
            repeats,
        )
        extras.update(_kernel_tier_extras("lloyd_refresh_bounds"))
    elif component == "fastkpp_native":
        optimized = _timed(lambda: fast_kmeans_plus_plus(points, k, seed=0), repeats)
        # Baseline: the frozen PR-9 numpy seeding (per-level fancy-indexed
        # sweeps + cumsum/searchsorted draws); both sides pay the same live
        # tree fits, so the ratio times the sweeps and draws themselves.
        seed_time = _best_of(
            lambda: prekernel_fast_kmeans_plus_plus(points, k, seed=0), repeats
        )
        extras.update(_kernel_tier_extras("fkpp_level_score"))
    elif component == "crude_bound_native":
        # One precomputed spread shared by every fold on both sides: the
        # binary search's occupancy probes dominate the fold, which is what
        # the compiled probe accelerates.
        spread = compute_spread(points)

        def _crude_folds(bound_fn) -> None:
            for fold in range(CRUDE_BOUND_FOLDS):
                bound_fn(points, k, spread=spread, seed=fold)

        optimized = _timed(lambda: _crude_folds(crude_cost_upper_bound), repeats)
        # Baseline: the frozen PR-9 numpy probes (hoisted-normalization
        # lattice refresh + np.unique distinct count).
        seed_time = _best_of(
            lambda: _crude_folds(prekernel_crude_cost_upper_bound), repeats
        )
        extras["folds"] = CRUDE_BOUND_FOLDS
        extras.update(_kernel_tier_extras("crude_bound_probe"))
    elif component == "merge_reduce_cached_bound":
        m = 40 * k
        sampler = FastCoreset(k=k, seed=0)

        def _run_stream(cache: bool) -> None:
            StreamingCoresetPipeline(
                sampler=sampler, coreset_size=m, seed=1, cache_cost_bound=cache
            ).run(DataStream.with_block_count(points, STREAM_BLOCKS))

        optimized = _timed(lambda: _run_stream(True), repeats)
        # Baseline: the identical pipeline minus the cost-bound cache (one
        # Algorithm-2 binary search per compression).
        seed_time = _best_of(lambda: _run_stream(False), repeats)
    elif component in ("windowed_stream_slide", "windowed_stream_decay"):
        m = 40 * k
        sampler = FastCoreset(k=k, seed=0)
        sliding = component.endswith("slide")
        blocks = list(DataStream.with_block_count(points, STREAM_BLOCKS))

        def _run_windowed_tree() -> None:
            # The dashboard pattern: a fresh window coreset after every
            # block, served from the incrementally maintained buckets.
            tree = WindowedMergeReduceTree(
                sampler=sampler,
                coreset_size=m,
                seed=1,
                window=(
                    SlidingCountWindow(WINDOW_BLOCKS)
                    if sliding
                    else ExponentialDecay(DECAY_HALF_LIFE)
                ),
            )
            for block_points, block_weights in blocks:
                tree.add_block(block_points, block_weights)
                tree.query()

        def _run_naive_recompute() -> None:
            # Baseline: retain raw blocks, rebuild + compress the whole
            # window from scratch at every query.
            reference = (
                NaiveWindowReference(window_blocks=WINDOW_BLOCKS)
                if sliding
                else NaiveWindowReference(half_life=DECAY_HALF_LIFE)
            )
            for block_points, block_weights in blocks:
                reference.add_block(block_points, block_weights)
                reference.compress(sampler, m, seed=1)

        optimized = _timed(_run_windowed_tree, repeats)
        seed_time = _best_of(_run_naive_recompute, repeats)
        extras["queries"] = STREAM_BLOCKS
    elif component == "lloyd":
        initial = points[np.random.default_rng(5).choice(n, size=k, replace=False)]
        optimized = _timed(
            lambda: kmeans(
                points,
                k,
                initial_centers=initial,
                max_iterations=LLOYD_ITERATIONS,
                tolerance=0.0,
                seed=0,
            ),
            repeats,
        )
        seed_time = _best_of(
            lambda: naive_kmeans(
                points,
                k,
                initial_centers=initial,
                max_iterations=LLOYD_ITERATIONS,
                tolerance=0.0,
                seed=0,
            ),
            repeats,
        )
    elif component == "merge_reduce":
        m = 40 * k
        sampler = FastCoreset(k=k, seed=0)
        optimized = _timed(
            lambda: stream_dataset(points, sampler, m, n_blocks=STREAM_BLOCKS, seed=1),
            repeats,
        )
        seed_time = _best_of(
            lambda: seed_stream_coreset(points, sampler, m, n_blocks=STREAM_BLOCKS, seed=1),
            repeats,
        )
    elif component == "merge_reduce_streamkm":
        m = k  # the k column doubles as the representative count
        weights = np.ones(n, dtype=np.float64)
        sampler = StreamKMPlusPlus(coreset_size=m, seed=0)
        optimized = _timed(lambda: sampler.sample(points, m, seed=2), repeats)
        seed_time = _best_of(lambda: seed_streamkm_reduce(points, weights, m, seed=2), repeats)
    elif component == "overlap_reduce":
        workers = k  # the k column doubles as the async worker count
        m = 40 * PARALLEL_K
        sampler = FastCoreset(k=PARALLEL_K, seed=0)
        diagnostics = {}

        def _run_overlap_stream(overlap: bool, slot: str) -> None:
            # Both sides run the identical async thread-pool pipeline; the
            # only difference is where reduces execute, so the ratio times
            # the host-thread reduce floor and nothing else.
            executor = ThreadAsyncExecutor(workers=workers)
            try:
                pipeline = StreamingCoresetPipeline(
                    sampler=sampler,
                    coreset_size=m,
                    seed=1,
                    executor=executor,
                    prefetch_batches=2,
                    overlap_reduces=overlap,
                )
                pipeline.run(DataStream.with_block_count(points, STREAM_BLOCKS))
            finally:
                executor.close()
            diagnostics[slot] = pipeline.last_diagnostics

        optimized = _timed(lambda: _run_overlap_stream(True, "optimized"), repeats)
        # The "seed" column is the leaf-only-async pipeline (host reduces).
        seed_time = _best_of(lambda: _run_overlap_stream(False, "baseline"), repeats)
        extras["host_reduce_seconds"] = round(
            diagnostics["optimized"]["host_reduce_seconds"], 6
        )
        extras["host_reduce_seconds_baseline"] = round(
            diagnostics["baseline"]["host_reduce_seconds"], 6
        )
        extras["reduces_offloaded"] = int(diagnostics["optimized"]["reduces_offloaded"])
    elif component == "parallel_shard":
        workers = k  # the k column doubles as the worker count
        builder = ShardedCoresetBuilder(
            FastCoreset(k=PARALLEL_K, seed=0),
            n_shards=PARALLEL_SHARDS,
            coreset_size_per_shard=40 * PARALLEL_K,
            seed=3,
        )
        process = ProcessAsyncExecutor(workers=workers)
        cleanup.append(process.close)
        optimized = _timed(lambda: builder.build(points, executor=process), repeats)
        # The "seed" column is the serial baseline of the identical build.
        seed_time = _best_of(
            lambda: builder.build(points, executor=SerialAsyncExecutor()), repeats
        )
    else:
        raise ValueError(f"unknown component {component!r}")
    # Interleave the remaining repeats optimized/seed/optimized/seed instead
    # of timing one side to completion before starting the other: host-level
    # speed drift on shared machines spans minutes, so back-to-back blocks
    # land the drift on one side of the ratio only (observed ±15% swings on
    # bit-identical builds), while alternation cancels it.  The best-of-R
    # minima are unchanged on a quiet machine.
    opt_fn, opt_repeats = pair["optimized"]
    seed_fn, seed_repeats = pair["seed"]
    for rep in range(1, max(opt_repeats, seed_repeats)):
        if rep < opt_repeats:
            optimized = min(optimized, _one_shot(opt_fn))
        if rep < seed_repeats:
            seed_time = min(seed_time, _one_shot(seed_fn))
    if spans and optimized_fn is not None:
        with observability.tracing() as recorder:
            optimized_fn()
        extras["spans"] = {
            span_name: {
                "count": rollup["count"],
                "wall_seconds": round(rollup["wall_seconds"], 6),
                "cpu_seconds": round(rollup["cpu_seconds"], 6),
            }
            for span_name, rollup in recorder.metrics()["spans"].items()
        }
    for close in cleanup:
        close()
    cores = available_cores()
    row = {
        "name": name,
        "component": component,
        "n": n,
        "d": d,
        "k": k,
        "cores": cores,
        "seed_seconds": round(seed_time, 6),
        "optimized_seconds": round(optimized, 6),
        "speedup": round(seed_time / optimized, 3),
    }
    row.update(extras)
    if component in PARALLEL_COMPONENTS and cores < k:  # k carries workers
        row["informational"] = True
    if component in NATIVE_COMPONENTS and row.get("kernel_tier") != "native":
        # Fallback tier: the "optimized" side ran the same numpy paths as
        # the baseline, so the ratio guards nothing on this machine.
        row["informational"] = True
    return row


def check_regression(previous: dict, results: list) -> list:
    """Return human-readable regression messages (empty when clean).

    The compared quantity is the optimized-to-seed time *ratio* of each
    tracked workload, not absolute seconds: the seed implementation is
    re-timed in the same process on the same hardware, so the ratio is
    machine-independent and a recorded JSON from faster or slower hardware
    neither blocks nor masks anything.
    """
    messages = []
    old_by_name = {w["name"]: w for w in previous.get("workloads", [])}
    for workload in results:
        old = old_by_name.get(workload["name"])
        if old is None or old.get("seed_seconds", 0) <= 0:
            continue
        if old.get("informational") or workload.get("informational"):
            # Worker counts beyond the recording (or replaying) machine's
            # cores: the ratio measures scheduler luck, not code.
            continue
        tolerance = COMPONENT_TOLERANCE.get(workload["component"], REGRESSION_TOLERANCE)
        before = old["optimized_seconds"] / old["seed_seconds"]
        after = workload["optimized_seconds"] / workload["seed_seconds"]
        if after > before * (1.0 + tolerance):
            messages.append(
                f"{workload['name']}: optimized/seed time ratio regressed "
                f"{before:.3f} -> {after:.3f} (+{(after / before - 1) * 100:.0f}%, "
                f"tolerance {tolerance * 100:.0f}%)"
            )
    return messages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--full", action="store_true", help="add the larger sweep workloads")
    parser.add_argument("--repeats", type=int, default=3, help="best-of-R timing (default 3)")
    parser.add_argument(
        "--check-regression",
        action="store_true",
        help="refuse to overwrite the JSON when a tracked workload regressed >20%%",
    )
    parser.add_argument(
        "--check-only",
        action="store_true",
        help="compare against the recorded JSON and exit non-zero on regression "
        "WITHOUT rewriting it (the `make bench-check` smoke)",
    )
    parser.add_argument(
        "--workloads",
        nargs="+",
        metavar="NAME",
        help="restrict the run to the named workloads (default: all tracked)",
    )
    parser.add_argument(
        "--components",
        nargs="+",
        metavar="COMPONENT",
        help="restrict the run to workloads of the named components",
    )
    parser.add_argument(
        "--serial-only",
        action="store_true",
        help="restrict the run to non-pool components (everything outside "
        "PARALLEL_COMPONENTS) — the CI's strict gate, kept in one place so "
        "new serial components are covered automatically",
    )
    parser.add_argument(
        "--spans",
        action="store_true",
        help="after the timed repeats, re-run each workload's optimized side "
        "once with tracing enabled and attach per-span rollups (count, wall, "
        "cpu) to the row — a breakdown column, never part of the timing",
    )
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    workloads = QUICK_WORKLOADS + (FULL_EXTRA if args.full else [])
    if args.workloads:
        by_name = {w[0]: w for w in QUICK_WORKLOADS + FULL_EXTRA}
        unknown = [name for name in args.workloads if name not in by_name]
        if unknown:
            parser.error(f"unknown workloads: {', '.join(unknown)}")
        workloads = [by_name[name] for name in args.workloads]
    if args.components:
        selected = []
        for component in args.components:
            selected.extend(COMPONENT_GROUPS.get(component, [component]))
        known = {w[4] for w in QUICK_WORKLOADS + FULL_EXTRA}
        unknown = [c for c in selected if c not in known]
        if unknown:
            parser.error(f"unknown components: {', '.join(unknown)}")
        workloads = [w for w in workloads if w[4] in selected]
        if not workloads:
            parser.error("the selected components match no workloads")
    if args.serial_only:
        workloads = [w for w in workloads if w[4] not in PARALLEL_COMPONENTS]
        if not workloads:
            parser.error("the selected components match no workloads")
    # Resolve the native kernel tier up front: first use runs the provider
    # build/load plus every per-kernel verifier, a one-time cost that must
    # not land inside the first timed repeat of a --repeats 1 replay.
    native_status()

    results = []
    for name, n, d, k, component in workloads:
        result = run_workload(name, n, d, k, component, args.repeats, spans=args.spans)
        print(
            f"{name:36s} seed {result['seed_seconds']:8.4f}s   "
            f"optimized {result['optimized_seconds']:8.4f}s   "
            f"speedup {result['speedup']:6.2f}x"
        )
        results.append(result)

    payload = {
        "benchmark": "hotpaths",
        "repeats": args.repeats,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "regression_tolerance": REGRESSION_TOLERANCE,
        "native": native_status(),
        "workloads": results,
    }

    previous = json.loads(args.output.read_text()) if args.output.exists() else None

    if args.check_only and previous is None:
        print(f"check-only: no recorded baseline at {args.output}", file=sys.stderr)
        return 1

    if previous is not None and (args.check_regression or args.check_only):
        messages = check_regression(previous, results)
        if messages:
            print("\nREGRESSION — tracked ratios degraded beyond tolerance", file=sys.stderr)
            for message in messages:
                print("  *", message, file=sys.stderr)
            return 1

    if args.check_only:
        print(f"\ncheck-only: tracked workloads within tolerance of {args.output}")
        return 0

    if previous is not None and (args.workloads or args.components or args.serial_only):
        # A partial (--workloads/--components/--serial-only) run only
        # refreshes the rows it re-timed; every other tracked baseline row
        # is carried forward so the regression guards keep their
        # comparison basis.
        rerun = {w["name"] for w in results}
        carried = [w for w in previous.get("workloads", []) if w["name"] not in rerun]
        payload["workloads"] = carried + results

    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
