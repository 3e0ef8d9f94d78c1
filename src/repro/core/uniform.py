"""Uniform sampling — the sublinear-time end of the speed/accuracy spectrum.

Every point is selected with equal probability and every selected point
receives weight ``W / m`` where ``W`` is the total input weight.  The
estimator is unbiased but, as the paper stresses, it carries no worst-case
guarantee: a single extreme outlier (the c-outlier dataset) or a tiny but
important cluster (the Star and Taxi datasets) can be missed entirely,
producing unbounded distortion.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.base import CoresetConstruction
from repro.core.coreset import Coreset
from repro.utils.rng import SeedLike, as_generator


class UniformSampling(CoresetConstruction):
    """Sample ``m`` points uniformly (proportionally to their input weights).

    Parameters
    ----------
    replace:
        Whether to sample with replacement.  The paper's description samples
        a subset (without replacement); with replacement is provided for the
        streaming composition where ``m`` can exceed a block's size.
    z:
        Cost exponent; uniform sampling itself is oblivious to it but the
        value is recorded for bookkeeping.
    seed:
        Default randomness source.
    """

    name = "uniform"

    def __init__(self, *, replace: bool = False, z: int = 2, seed: SeedLike = None) -> None:
        super().__init__(z=z, seed=seed)
        self.replace = replace

    def _sample(
        self,
        points: np.ndarray,
        weights: np.ndarray,
        m: int,
        seed: SeedLike,
        spread: Optional[float] = None,
        cost_bound: Optional[float] = None,
    ) -> Coreset:
        generator = as_generator(seed)
        n = points.shape[0]
        total_weight = float(weights.sum())
        probabilities = weights / total_weight
        replace = self.replace or m > np.count_nonzero(weights)
        indices = generator.choice(n, size=m, replace=replace, p=probabilities)
        # Horvitz-Thompson style weights: each draw represents W / m units of
        # input mass, which keeps the cost estimator unbiased.
        sample_weights = np.full(m, total_weight / m, dtype=np.float64)
        return Coreset(
            points=points[indices],
            weights=sample_weights,
            indices=indices,
            method=self.name,
        )


def uniform_sample(
    points: np.ndarray,
    m: int,
    *,
    weights: Optional[np.ndarray] = None,
    seed: SeedLike = None,
) -> Coreset:
    """Functional shortcut for :class:`UniformSampling`.

    Parameters
    ----------
    points:
        Array of shape ``(n, d)``.
    m:
        Sample size.
    weights:
        Optional input weights.
    seed:
        Randomness source.
    """
    return UniformSampling(seed=seed).sample(points, m, weights=weights)
