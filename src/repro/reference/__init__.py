"""Frozen reference implementations used for equivalence testing and benchmarking.

The modules in this package are verbatim snapshots of the seed revision's
hot-path code (``seed_*``) and naive recompute-from-scratch oracles
(``naive_*``).  They are **not** maintained for speed and must not be used
by library code: their sole purpose is to

* serve as the golden baseline for the equivalence tests (the optimized
  quadtree must report the same cells and tree distances as the seed, the
  windowed tree the same window as the recompute-from-window oracle), and
* provide the baseline timing column of the seed-relative rows of
  ``benchmarks/bench_perf_hotpaths.py``, so those rows measure
  baseline-vs-optimized in the same process on the same hardware.  The
  compiled-tier rows time the live code under ``REPRO_NATIVE=0`` instead.

Do not modify these snapshots when optimizing the live implementations —
that would silently move the goalposts of both the tests and the benchmark.
"""

from repro.reference.naive_window import NaiveWindowReference
from repro.reference.seed_hotpath import SeedQuadtreeEmbedding, seed_fast_kmeans_plus_plus
from repro.reference.seed_streaming import (
    SeedMergeReduceTree,
    seed_compute_spread,
    seed_stream_coreset,
)

__all__ = [
    "SeedQuadtreeEmbedding",
    "SeedMergeReduceTree",
    "NaiveWindowReference",
    "seed_compute_spread",
    "seed_fast_kmeans_plus_plus",
    "seed_stream_coreset",
]
