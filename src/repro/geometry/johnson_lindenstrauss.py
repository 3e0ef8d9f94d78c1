"""Johnson–Lindenstrauss dimension reduction.

Step 2 of Algorithm 1 in the paper embeds the input into ``O(log k)``
dimensions before running ``Fast-kmeans++``.  Makarychev, Makarychev and
Razenshteyn [50] show that a random linear projection to
``O(log(k / epsilon) / epsilon^2)`` dimensions preserves the k-means and
k-median costs of every clustering up to ``1 +- epsilon``, so the bicriteria
solution found in the projected space carries back to the original space.

The implementation uses a dense Gaussian projection matrix, which is the
simplest construction satisfying the lemma and costs ``O(n d d')`` to apply —
within the paper's Õ(nd) budget because ``d'`` is polylogarithmic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_integer, check_positive


def jl_target_dimension(k: int, epsilon: float = 0.5, *, minimum: int = 8) -> int:
    """Target dimension for a clustering-preserving JL projection.

    Following [50], ``O(log(k/eps) / eps^2)`` dimensions suffice for cost
    preservation of k-clusterings.  The constant is chosen so the defaults
    match the practical choices in the paper's experiments (MNIST, the only
    dataset where dimension reduction is applied, is projected to a few tens
    of dimensions for ``k = 100``).
    """
    k = check_integer(k, name="k")
    epsilon = check_positive(epsilon, name="epsilon")
    dimension = int(math.ceil(4.0 * math.log(max(k, 2) / epsilon) / epsilon**2 * 0.25))
    return max(minimum, dimension)


@dataclass
class JohnsonLindenstraussEmbedding:
    """A fitted random linear embedding ``R^d -> R^target_dim``.

    Parameters
    ----------
    target_dim:
        Output dimensionality.  If ``None`` at fit time, it is derived from
        ``k`` via :func:`jl_target_dimension`.
    seed:
        Randomness for the projection matrix.

    Attributes
    ----------
    projection_:
        The ``(d, target_dim)`` projection matrix, populated by :meth:`fit`.

    Examples
    --------
    >>> import numpy as np
    >>> points = np.random.default_rng(0).normal(size=(100, 64))
    >>> embedding = JohnsonLindenstraussEmbedding(target_dim=16, seed=0)
    >>> projected = embedding.fit_transform(points)
    >>> projected.shape
    (100, 16)
    """

    target_dim: Optional[int] = None
    seed: SeedLike = None
    projection_: Optional[np.ndarray] = field(default=None, repr=False)

    def fit(self, points: np.ndarray, *, k: Optional[int] = None) -> "JohnsonLindenstraussEmbedding":
        """Sample the projection matrix for data of dimension ``points.shape[1]``.

        Parameters
        ----------
        points:
            The data whose dimensionality determines the input side of the
            projection; the values themselves are not used.  A finite,
            C-contiguous float64 ``(n, d)`` array, as
            :func:`~repro.utils.validation.check_points` returns it.
        k:
            Number of clusters, used to pick ``target_dim`` when it was not
            given explicitly.
        """
        input_dim = points.shape[1]
        if self.target_dim is None:
            if k is None:
                raise ValueError("either target_dim or k must be provided")
            self.target_dim = jl_target_dimension(k)
        self.target_dim = check_integer(self.target_dim, name="target_dim")
        generator = as_generator(self.seed)
        # Gaussian entries scaled so squared norms are preserved in expectation.
        self.projection_ = generator.normal(
            scale=1.0 / math.sqrt(self.target_dim), size=(input_dim, self.target_dim)
        )
        return self

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Project ``points`` with the fitted matrix.

        Precondition: ``points`` is finite, C-contiguous float64 ``(n, d)``,
        as :func:`~repro.utils.validation.check_points` returns it.
        """
        if self.projection_ is None:
            raise RuntimeError("the embedding must be fitted before calling transform")
        if points.shape[1] != self.projection_.shape[0]:
            raise ValueError(
                f"points have dimension {points.shape[1]} but the embedding was fitted "
                f"for dimension {self.projection_.shape[0]}"
            )
        return points @ self.projection_

    def fit_transform(self, points: np.ndarray, *, k: Optional[int] = None) -> np.ndarray:
        """Fit the projection on ``points`` and return the projected data."""
        return self.fit(points, k=k).transform(points)


def maybe_reduce_dimension(
    points: np.ndarray,
    k: int,
    *,
    threshold: int = 64,
    seed: SeedLike = None,
) -> np.ndarray:
    """Project ``points`` to ``O(log k)`` dimensions when that is a reduction.

    The paper only applies dimension reduction to MNIST because the other
    datasets already have low dimensionality; this helper encodes the same
    rule — data with at most ``threshold`` features is returned unchanged.

    Precondition: ``points`` is finite, C-contiguous float64 ``(n, d)``, as
    :func:`~repro.utils.validation.check_points` returns it.
    """
    target = jl_target_dimension(k)
    if points.shape[1] <= max(threshold, target):
        return points
    embedding = JohnsonLindenstraussEmbedding(target_dim=target, seed=seed)
    return embedding.fit_transform(points)
