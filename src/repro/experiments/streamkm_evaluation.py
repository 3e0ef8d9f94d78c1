"""Table 9: StreamKM++ distortion on the artificial datasets.

StreamKM++ builds its compression from k-means++ D²-sampled representatives,
each weighted by the points nearest to it; its theoretical coreset size is
logarithmic in ``n`` and exponential in ``d``, far larger than what
sensitivity sampling needs, so at the sample sizes of the paper
(``m = 40k``) its distortion is noticeably worse than the sensitivity-based
constructions — the shape Table 9 records.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.config import ExperimentScale
from repro.evaluation import coreset_distortion
from repro.evaluation.tables import ExperimentRow
from repro.experiments.common import (
    ARTIFICIAL_DATASETS,
    clamp_m,
    dataset_for_experiment,
    k_and_m_for,
    row,
)
from repro.streaming import StreamKMPlusPlus
from repro.utils.rng import SeedLike, as_generator, random_seed_from


def table9_streamkm_distortion(
    *,
    datasets: Sequence[str] = ARTIFICIAL_DATASETS,
    m_scalar: int = 40,
    scale: Optional[ExperimentScale] = None,
    repetitions: Optional[int] = None,
    seed: SeedLike = 0,
) -> List[ExperimentRow]:
    """Reproduce Table 9 (StreamKM++ distortions on the artificial datasets)."""
    scale = scale or ExperimentScale.from_environment()
    repetitions = repetitions or scale.repetitions
    generator = as_generator(seed)
    rows: List[ExperimentRow] = []
    for dataset_name in datasets:
        dataset = dataset_for_experiment(dataset_name, scale, random_seed_from(generator))
        k, m = k_and_m_for(dataset_name, scale, m_scalar=m_scalar)
        m = clamp_m(m, dataset.n)
        distortions = []
        for _ in range(repetitions):
            sampler = StreamKMPlusPlus(seed=random_seed_from(generator))
            coreset = sampler.sample(dataset.points, m)
            distortions.append(
                coreset_distortion(dataset.points, coreset, k, seed=random_seed_from(generator))
            )
        values = np.asarray(distortions)
        rows.append(
            row(
                "table9",
                dataset=dataset_name,
                method="streamkm++",
                values={"distortion_mean": float(values.mean()), "distortion_var": float(values.var())},
                parameters={"k": float(k), "m": float(m), "m_scalar": float(m_scalar)},
            )
        )
    return rows
