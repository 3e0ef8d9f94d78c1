"""Common interface for every compression algorithm in the library.

The paper's experiments treat each sampler as a black box that maps a
(weighted) dataset and a target size ``m`` to a weighted subset.  Encoding
that contract once in :class:`CoresetConstruction` lets the static sweep
(Table 4), the streaming merge-&-reduce harness (Table 5) and the sharded
single-round MapReduce build (Section 2.3) run any sampler without
special-casing.
"""

from __future__ import annotations

import abc
import math
from typing import Optional

import numpy as np

from repro.core.coreset import Coreset
from repro.utils.rng import SeedLike
from repro.utils.validation import check_points, check_sample_size, check_weights


def check_sample_input(points: np.ndarray, weights: np.ndarray, m: int) -> None:
    """Reject weights and coordinates that no sampler can compress to ``m`` points.

    ``points`` and ``weights`` are as :func:`check_points` and
    :func:`check_weights` return them.  :meth:`CoresetConstruction.sample`
    runs this on its input, and a stream tree on every block of a batch
    before it ingests any.  Three rules, each a ``ValueError``:

    * The total weight is at least the smallest normal double.  Every
      sampler normalises by the total: a zero total gives NaN sampling
      probabilities or all-zero coreset weights, and a subnormal one has
      lost the precision its ratios need.
    * ``m / max(weights)`` is finite.  Importance weights are the input mass
      over ``m`` times a score, and the scores reach one over a cluster's
      mass: with every weight this close to the bottom of the float64
      range, those quotients overflow or underflow (NaN sampling
      probabilities, zero output weights).  Only the largest weight counts,
      so a few tiny weights beside normal ones pass.
    * No clustering's cost overflows float64.  None costs more than total
      weight × d × (2·max|x|)²; that bound is a product of Python floats,
      which round to ``inf`` without a warning, and the weights are summed
      after scaling by their maximum, so the check itself never overflows.
    """
    total = float(np.sum(weights))
    tiny = float(np.finfo(np.float64).tiny)
    if not total >= tiny:
        raise ValueError(
            f"input weights must sum to at least {tiny:.6g} (the smallest normal "
            f"float64), got a total of {total:.6g}"
        )
    heaviest = float(weights.max())
    if not math.isfinite(m / heaviest):
        raise ValueError(
            f"the largest input weight, {heaviest:.6g}, is too small to sample "
            f"{m} points: m / max(weights) overflows float64; rescale the weights"
        )
    scale = max(float(points.max()), -float(points.min()))
    scaled_total = heaviest * float(np.sum(weights / heaviest))
    if not math.isfinite(2.0 * scale * 2.0 * scale * points.shape[1] * scaled_total):
        raise ValueError(
            "clustering costs of these points overflow float64: total weight x d x "
            f"(2 max|x|)^2 is not finite at max|x| = {scale:.3g}; rescale the data"
        )


class CoresetConstruction(abc.ABC):
    """Abstract base class for samplers producing weighted compressions.

    Subclasses implement :meth:`_sample`; the public :meth:`sample` method
    validates arguments and normalises the inputs so implementations can
    assume a clean ``(n, d)`` float array and a length-``n`` weight vector.

    Attributes
    ----------
    name:
        Short identifier used in experiment tables ("uniform",
        "lightweight", "welterweight", "sensitivity", "fast_coreset", ...).
    z:
        Cost exponent the construction targets (1 = k-median, 2 = k-means).
    """

    #: Overridden by subclasses; used as the ``method`` field of the coresets.
    name: str = "abstract"

    #: Whether :meth:`_sample` makes use of the ``cost_bound`` hint.  Stream
    #: drivers consult this before paying for a crude-cost computation on
    #: behalf of a sampler that would only ignore it.
    consumes_cost_bound: bool = False

    def __init__(self, *, z: int = 2, seed: SeedLike = None) -> None:
        self.z = z
        self.seed = seed

    # ----------------------------------------------------------------- API
    def sample(
        self,
        points: np.ndarray,
        m: int,
        *,
        weights: Optional[np.ndarray] = None,
        seed: SeedLike = None,
        spread: Optional[float] = None,
        cost_bound: Optional[float] = None,
    ) -> Coreset:
        """Compress ``points`` into a weighted subset of size ``m``.

        Parameters
        ----------
        points:
            Array of shape ``(n, d)``.
        m:
            Target compression size.  Must not exceed ``n``.
        weights:
            Optional input weights; needed when re-compressing an existing
            coreset, as the streaming and sharded pipelines do.
        seed:
            Per-call randomness override.  When ``None`` the seed supplied at
            construction time is used, which keeps repeated experiment runs
            reproducible while still allowing the harness to vary seeds
            across repetitions.
        spread:
            Optional precomputed spread estimate of ``points`` (only its
            logarithm is consumed downstream).  Samplers that do not build
            quadtrees ignore it; :class:`~repro.core.fast_coreset.FastCoreset`
            uses it to skip its per-call spread estimates, which is how the
            streaming merge-&-reduce tree shares one estimate across every
            compression of a stream.
        cost_bound:
            Optional precomputed crude k-median cost upper bound ``U``
            (Algorithm 2) for ``points``.  Samplers whose
            :attr:`consumes_cost_bound` is false ignore it;
            :class:`~repro.core.fast_coreset.FastCoreset` feeds it to
            :func:`~repro.core.spread_reduction.reduce_spread`, skipping the
            per-call dyadic binary search the same way ``spread`` skips the
            pairwise subsample.  Like ``spread``, the value only steers
            grid granularities (Lemmas 4.3/4.5 tolerate polynomial slack),
            so a slightly stale bound from earlier, similarly distributed
            data is valid.
        """
        points = check_points(points)
        weights = check_weights(weights, points.shape[0])
        m = check_sample_size(m, points.shape[0])
        check_sample_input(points, weights, m)
        effective_seed = seed if seed is not None else self.seed
        coreset = self._sample(
            points, weights, m, effective_seed, spread=spread, cost_bound=cost_bound
        )
        coreset.method = self.name
        return coreset

    @abc.abstractmethod
    def _sample(
        self,
        points: np.ndarray,
        weights: np.ndarray,
        m: int,
        seed: SeedLike,
        spread: Optional[float] = None,
        cost_bound: Optional[float] = None,
    ) -> Coreset:
        """Produce the compression; inputs are already validated."""

    # -------------------------------------------------------------- helpers
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, z={self.z})"
