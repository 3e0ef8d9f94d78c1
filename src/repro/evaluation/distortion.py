"""The coreset-distortion metric of Section 5 (introduced in [57]).

Given a compression ``Omega`` of a dataset ``P``, a candidate solution
``C_Omega`` is computed *on the compression* and the metric is

``max( cost(P, C_Omega) / cost(Omega, C_Omega),
       cost(Omega, C_Omega) / cost(P, C_Omega) )``.

If the coreset guarantee holds the value is at most ``1 + epsilon``; for
compressions that missed important regions (an outlier cluster, say) the
solution computed on the compression ignores those regions, its cost on the
full dataset explodes, and the distortion becomes arbitrarily large — which
is exactly the failure mode Tables 2, 4, 5, 6 and 9 of the paper report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.clustering.cost import clustering_cost
from repro.clustering.kmedian import kmedian
from repro.clustering.lloyd import kmeans
from repro.core.coreset import Coreset
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_integer, check_points, check_power, check_weights


@dataclass
class DistortionReport:
    """Detailed outcome of one distortion evaluation.

    Attributes
    ----------
    distortion:
        The max-ratio metric described in the module docstring.
    cost_on_full:
        Cost of the compression-derived solution on the full dataset.
    cost_on_coreset:
        Cost of the same solution on the compression.
    coreset_size:
        Number of points in the compression.
    """

    distortion: float
    cost_on_full: float
    cost_on_coreset: float
    coreset_size: int


def distortion_of_solution(
    points: np.ndarray,
    coreset: Coreset,
    centers: np.ndarray,
    *,
    weights: Optional[np.ndarray] = None,
    z: int = 2,
) -> DistortionReport:
    """Distortion of a *given* candidate solution.

    Exposed separately so tests and ablations can probe adversarial
    solutions; :func:`coreset_distortion` uses it with the solution obtained
    by clustering the compression.
    """
    points = check_points(points)
    z = check_power(z)
    weights = check_weights(weights, points.shape[0])
    cost_full = clustering_cost(points, centers, weights=weights, z=z)
    cost_coreset = coreset.cost(centers, z=z)
    if cost_full <= 0 or cost_coreset <= 0:
        # A zero cost means the solution covers every (weighted) point
        # exactly; by convention the distortion is one unless only one side
        # is zero, in which case it is infinite.
        if cost_full <= 0 and cost_coreset <= 0:
            distortion = 1.0
        else:
            distortion = float("inf")
    else:
        distortion = max(cost_full / cost_coreset, cost_coreset / cost_full)
    return DistortionReport(
        distortion=float(distortion),
        cost_on_full=float(cost_full),
        cost_on_coreset=float(cost_coreset),
        coreset_size=coreset.size,
    )


def coreset_distortion(
    points: np.ndarray,
    coreset: Coreset,
    k: int,
    *,
    z: int = 2,
    weights: Optional[np.ndarray] = None,
    lloyd_iterations: int = 10,
    seed: SeedLike = None,
) -> float:
    """The paper's evaluation metric: distortion of the coreset-derived solution.

    Parameters
    ----------
    points:
        The full dataset ``P``.
    coreset:
        The compression ``Omega`` to evaluate.
    k:
        Number of clusters for the candidate solution.
    z:
        1 for k-median, 2 for k-means.
    weights:
        Optional weights of the full dataset.
    lloyd_iterations:
        Refinement iterations when computing the candidate solution on the
        compression.
    seed:
        Randomness for the candidate solution.

    Returns
    -------
    float
        The distortion value (>= 1; close to 1 for a faithful compression).
    """
    check_integer(k, name="k")
    generator = as_generator(seed)
    k_effective = min(k, coreset.size)
    if z == 2:
        result = kmeans(
            coreset.points,
            k_effective,
            weights=coreset.weights,
            max_iterations=lloyd_iterations,
            seed=generator,
        )
        centers = result.centers
    else:
        result = kmedian(
            coreset.points,
            k_effective,
            weights=coreset.weights,
            max_iterations=max(3, lloyd_iterations // 2),
            seed=generator,
        )
        centers = result.centers
    report = distortion_of_solution(points, coreset, centers, weights=weights, z=z)
    return report.distortion
