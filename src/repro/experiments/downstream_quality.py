"""Table 8: downstream clustering cost obtained from each sampler's coreset.

Among the samplers whose distortion is small on the real datasets, is there
one whose coreset consistently produces the *best* k-means solution for the
original data?  The protocol: an identical k-means++ initialisation per
dataset, Lloyd's algorithm on each sampler's coreset, and the resulting
centers evaluated on the full dataset (``cost(P, C_S)``).  The paper's
conclusion — "no sampling method leads to solutions with consistently
minimal costs" — is what this harness lets the reader check.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.config import ExperimentScale
from repro.evaluation.solution_quality import shared_initialization, solution_cost_on_dataset
from repro.evaluation.tables import ExperimentRow
from repro.experiments.common import (
    clamp_m,
    dataset_for_experiment,
    k_and_m_for,
    make_samplers,
    row,
)
from repro.utils.rng import SeedLike, as_generator, random_seed_from

#: The datasets of Table 8 (the real stand-ins).
TABLE8_DATASETS: Sequence[str] = ("mnist", "adult", "star", "song", "census", "taxi", "covtype")


def table8_downstream_cost(
    *,
    datasets: Sequence[str] = TABLE8_DATASETS,
    k: Optional[int] = None,
    scale: Optional[ExperimentScale] = None,
    seed: SeedLike = 0,
) -> List[ExperimentRow]:
    """Reproduce Table 8 (full-dataset cost of the coreset-derived solutions).

    Parameters
    ----------
    datasets:
        Dataset names.
    k:
        Number of clusters for the downstream task (the paper uses 50);
        defaults to the scale's small-``k``.
    scale, seed:
        Experiment scale and base randomness.
    """
    scale = scale or ExperimentScale.from_environment()
    generator = as_generator(seed)
    rows: List[ExperimentRow] = []
    for dataset_name in datasets:
        dataset = dataset_for_experiment(dataset_name, scale, random_seed_from(generator))
        downstream_k = k or min(scale.k_small, 50)
        _, m = k_and_m_for(dataset_name, scale)
        m = clamp_m(m, dataset.n)
        samplers = make_samplers(downstream_k, seed=random_seed_from(generator))
        initialization = shared_initialization(
            dataset.points, downstream_k, seed=random_seed_from(generator)
        )
        for method, sampler in samplers.items():
            coreset = sampler.sample(dataset.points, m, seed=random_seed_from(generator))
            cost = solution_cost_on_dataset(
                dataset.points,
                coreset,
                downstream_k,
                initial_centers=initialization,
                seed=random_seed_from(generator),
            )
            rows.append(
                row(
                    "table8",
                    dataset=dataset_name,
                    method=method,
                    values={"cost_on_full": cost},
                    parameters={"k": float(downstream_k), "m": float(m), "n": float(dataset.n)},
                )
            )
    return rows
