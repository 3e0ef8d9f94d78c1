"""Downstream solution quality (Table 8 of the paper).

A compression with small distortion is faithful, but the paper also asks the
practical question: which compression leads to the *best* clustering of the
original data?  The protocol of Table 8: seed k-means++ on the coreset, run
Lloyd's algorithm on the coreset (both under identical initialisations
across samplers), then evaluate the resulting centers on the full dataset.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.clustering.cost import clustering_cost
from repro.clustering.kmeans_pp import kmeans_plus_plus
from repro.clustering.kmedian import kmedian
from repro.clustering.lloyd import kmeans
from repro.core.coreset import Coreset
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_integer, check_points, check_power


def solution_cost_on_dataset(
    points: np.ndarray,
    coreset: Coreset,
    k: int,
    *,
    z: int = 2,
    lloyd_iterations: int = 10,
    initial_centers: Optional[np.ndarray] = None,
    seed: SeedLike = None,
) -> float:
    """Cost on the full dataset of the solution obtained from the coreset.

    Parameters
    ----------
    points:
        Full dataset ``P``.
    coreset:
        The compression used for solving.
    k:
        Number of clusters.
    z:
        1 for k-median, 2 for k-means.
    lloyd_iterations:
        Refinement iterations run on the coreset.
    initial_centers:
        Optional shared initialisation.  Table 8 keeps the initialisation
        identical across samplers within a row; the harness obtains it with
        :func:`shared_initialization` and passes it here.
    seed:
        Randomness used when no initialisation is given.
    """
    points = check_points(points)
    check_integer(k, name="k")
    check_power(z)
    generator = as_generator(seed)
    k_effective = min(k, coreset.size)
    if z == 2:
        result = kmeans(
            coreset.points,
            k_effective,
            weights=coreset.weights,
            max_iterations=lloyd_iterations,
            initial_centers=initial_centers,
            seed=generator,
        )
        centers = result.centers
    else:
        result = kmedian(
            coreset.points,
            k_effective,
            weights=coreset.weights,
            max_iterations=max(3, lloyd_iterations // 2),
            initial_centers=initial_centers,
            seed=generator,
        )
        centers = result.centers
    return clustering_cost(points, centers, z=z)


def shared_initialization(
    points: np.ndarray,
    k: int,
    *,
    z: int = 2,
    seed: SeedLike = 0,
) -> np.ndarray:
    """A k-means++ initialisation on the full dataset, shared across samplers.

    Table 8's footnote: "Initializations are identical within each row" —
    computing the seeding once on the original data and handing the same
    centers to every sampler's Lloyd run implements that control.
    """
    solution = kmeans_plus_plus(points, k, z=z, seed=seed)
    return solution.centers
