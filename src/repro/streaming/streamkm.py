"""StreamKM++: k-means++ representatives re-weighted by their nearest points.

StreamKM++ [1] reduces a point set with a "coreset tree": representatives
are selected by D²-sampling (k-means++ style) and every input point donates
its weight to its nearest representative.  The resulting compression is a
quantisation of the input — good for seeding Lloyd's algorithm, but (as the
paper's Table 9 shows) not a strong coreset at the sample sizes sensitivity
sampling needs, because the construction's theoretical coreset size is
logarithmic in ``n`` and exponential in ``d``.

The reduction is a plain :class:`~repro.core.base.CoresetConstruction`:
:func:`~repro.clustering.kmeans_pp.kmeans_plus_plus` selects the
representatives (on the compiled tier when it is enabled) and returns the
nearest-representative assignment that the re-weighting sums over.  A
stream runs through the same merge-&-reduce tree as every other sampler:
:class:`~repro.streaming.merge_reduce.MergeReduceTree` or
:func:`~repro.streaming.merge_reduce.stream_dataset` with this sampler.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.clustering.kmeans_pp import kmeans_plus_plus
from repro.core.base import CoresetConstruction
from repro.core.coreset import Coreset
from repro.utils.rng import SeedLike


class StreamKMPlusPlus(CoresetConstruction):
    """StreamKM++ reduction: D²-sampled representatives, nearest-point weights.

    Parameters
    ----------
    z:
        Cost exponent; StreamKM++ targets k-means, so 2 is the paper's (and
        the default) choice.
    seed:
        Default randomness source.
    """

    name = "streamkm++"

    def _sample(
        self,
        points: np.ndarray,
        weights: np.ndarray,
        m: int,
        seed: SeedLike,
        spread: Optional[float] = None,
        cost_bound: Optional[float] = None,
    ) -> Coreset:
        """Select ``m`` representatives by k-means++ and re-weight them.

        Each representative's weight is the total weight of the points
        nearest to it, so the compression preserves the input's total weight
        exactly; representatives that attract no weight are dropped.
        """
        seeding = kmeans_plus_plus(points, m, weights=weights, z=self.z, seed=seed)
        representative_weights = np.bincount(seeding.assignment, weights=weights, minlength=m)
        occupied = representative_weights > 0
        return Coreset(
            points=seeding.centers[occupied],
            weights=representative_weights[occupied],
            indices=None,
            method=self.name,
        )
