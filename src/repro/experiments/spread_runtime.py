"""Table 1: Fast-kmeans++ runtime as a function of the spread parameter ``r``.

The paper constructs a dataset whose spread ``Delta`` grows with ``r`` and
shows that the runtime of the quadtree-based seeding grows with
``r ~ log Delta`` — the motivation for the Section 4 spread reduction.  The
harness times ``fast_kmeans_plus_plus`` (no spread reduction) for the same
``r`` values as the paper and also reports the quadtree depth, which is the
quantity that actually grows.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.clustering.fast_kmeans_pp import fast_kmeans_plus_plus
from repro.config import ExperimentScale
from repro.data.synthetic import high_spread_dataset
from repro.evaluation.tables import ExperimentRow
from repro.experiments.common import row
from repro.geometry.quadtree import QuadtreeEmbedding
from repro.native import native_status
from repro.utils.rng import SeedLike, as_generator, random_seed_from
from repro.utils.timer import timed


def table1_spread_runtime(
    *,
    r_values: Sequence[int] = (20, 30, 40, 50),
    k: int = 50,
    scale: Optional[ExperimentScale] = None,
    repetitions: Optional[int] = None,
    seed: SeedLike = 0,
) -> List[ExperimentRow]:
    """Reproduce Table 1 (mean Fast-kmeans++ runtime vs ``r``).

    Parameters
    ----------
    r_values:
        The spread parameters; the paper uses 20, 30, 40, 50.
    k:
        Number of centers for the seeding.
    scale:
        Controls the dataset size.
    repetitions:
        Number of timed repetitions per ``r`` (the paper uses five).
    seed:
        Base randomness.
    """
    scale = scale or ExperimentScale.from_environment()
    repetitions = repetitions or scale.repetitions
    generator = as_generator(seed)
    rows: List[ExperimentRow] = []
    # Resolve the kernel tier (provider build and verifiers) before the
    # clock starts, so the first timed call does not pay for it.
    native_status()
    for r in r_values:
        dataset = high_spread_dataset(n=scale.synthetic_n, r=r, seed=random_seed_from(generator))
        depth = QuadtreeEmbedding(max_levels=64, seed=0).fit(dataset.points).depth
        runtimes = []
        for _ in range(repetitions):
            _, seconds = timed(
                fast_kmeans_plus_plus,
                dataset.points,
                k,
                seed=random_seed_from(generator),
                max_levels=64,
            )
            runtimes.append(seconds)
        mean_runtime = sum(runtimes) / len(runtimes)
        std_runtime = (sum((t - mean_runtime) ** 2 for t in runtimes) / len(runtimes)) ** 0.5
        rows.append(
            row(
                "table1",
                dataset="high_spread",
                method="fast_kmeans++",
                values={
                    "runtime_mean": mean_runtime,
                    "runtime_std": std_runtime,
                    "depth": float(depth),
                },
                parameters={"r": float(r), "k": float(k), "n": float(dataset.n)},
            )
        )
    return rows
