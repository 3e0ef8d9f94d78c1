#!/usr/bin/env python3
"""Multi-core sharded compression of a Census-scale workload.

Section 2.3 of the paper explains why coresets make compression
embarrassingly parallel: coresets of disjoint shards compose by union and
their size does not depend on the shard size, so every worker compresses
its shard independently and the host merges the messages in one round.

This example runs that recipe for real through the parallel execution
engine (:mod:`repro.parallel`): the same sharded build is executed on the
serial backend and on the shared-memory process backend at 1, 2, and 4
workers (``submit`` → futures, each shard handed to the host the moment it
completes), with measured wall-clock per configuration.  Two properties to
watch in the output:

* the coresets are **bit-identical** in every configuration — the shard
  count and the seed key the result; backend and worker count only change
  how fast it is produced (the spawn-keyed seed protocol documented in
  ``src/repro/parallel/README.md`` is why completion order cannot matter);
* the speedup tracks the machine: on an N-core box the process backend
  approaches min(N, workers)x on this workload, while on a single core it
  dips below 1x (the workers time-slice one core and pay pool overhead).

Run with::

    python examples/mapreduce_compression.py
"""

from __future__ import annotations

import time

from repro.clustering import kmeans
from repro.clustering.cost import clustering_cost
from repro.core import FastCoreset
from repro.data import census_like
from repro.evaluation import coreset_distortion
from repro.parallel import ProcessAsyncExecutor, SerialAsyncExecutor, ShardedCoresetBuilder


def main() -> None:
    print("Generating a Census-like dataset ...")
    dataset = census_like(fraction=0.01, seed=0)
    points = dataset.points
    k = 50
    n_shards = 4
    per_shard = 20 * k
    print(f"n={dataset.n}, d={dataset.d}, k={k}, shards={n_shards}\n")

    builder = ShardedCoresetBuilder(
        sampler=FastCoreset(k=k, seed=0),
        n_shards=n_shards,
        coreset_size_per_shard=per_shard,
        final_coreset_size=40 * k,
        seed=0,
    )

    configurations = [("serial", SerialAsyncExecutor())] + [
        (f"process x{workers}", ProcessAsyncExecutor(workers=workers)) for workers in (1, 2, 4)
    ]
    results = {}
    baseline = None
    for label, executor in configurations:
        start = time.perf_counter()
        try:
            build = builder.build(points, executor=executor)
            elapsed = time.perf_counter() - start
        finally:
            executor.close()
        if baseline is None:
            baseline = elapsed
        results[label] = build
        print(
            f"{label:12s} wall={elapsed:6.2f}s  speedup={baseline / elapsed:5.2f}x  "
            f"messages={build.message_sizes}  communication={build.communication:,} floats"
        )

    reference = results["serial"].coreset
    identical = all(
        (build.coreset.points == reference.points).all()
        and (build.coreset.weights == reference.weights).all()
        for build in results.values()
    )
    print(f"\nall configurations produced bit-identical coresets: {identical}")

    distortion = coreset_distortion(points, reference, k=k, seed=3)
    print(f"host coreset: {reference.size} points, distortion={distortion:.3f}")

    print("\nSolving k-means on the compression and checking it against the full data ...")
    solution = kmeans(reference.points, k, weights=reference.weights, seed=2)
    cost_on_full = clustering_cost(points, solution.centers)
    cost_estimate = reference.cost(solution.centers)
    print(f"cost estimated on the compression: {cost_estimate:,.0f}")
    print(f"cost evaluated on the full data:   {cost_on_full:,.0f}")
    print(f"estimation error: {abs(cost_estimate - cost_on_full) / cost_on_full:.2%}")


if __name__ == "__main__":
    main()
