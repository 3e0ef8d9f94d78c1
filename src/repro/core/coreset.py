"""The :class:`Coreset` container and coreset composition.

A coreset is a weighted subset ``(Omega, w)`` of the input whose weighted
cost approximates the cost of the full dataset for *every* candidate
solution (Definition 2.1 of the paper).  Two structural properties make
coresets attractive for database-style deployments (Section 2.3):

* **Composition** — the union of coresets of two datasets is a coreset of
  the union of the datasets.  :func:`merge_coresets` implements this and is
  the primitive behind both the streaming merge-&-reduce tree and the
  sharded single-round MapReduce build.
* **Size independence** — the coreset size does not depend on ``n``, so a
  compression can be held in a memory-constrained worker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

import numpy as np

from repro.clustering.cost import clustering_cost
from repro.utils.validation import check_points, check_weights


@dataclass
class Coreset:
    """A weighted point set produced by one of the compression algorithms.

    Attributes
    ----------
    points:
        Array of shape ``(m, d)`` holding the selected points.
    weights:
        Non-negative weights of length ``m``.  For an unbiased construction
        the weights sum (approximately) to the total weight of the input.
    indices:
        Optional indices of the selected points in the originating dataset;
        ``None`` when the coreset was built from intermediate summaries (for
        example BICO clustering features) rather than original points.
    method:
        Human-readable name of the construction that produced the coreset.
    metadata:
        Free-form diagnostics (construction time, parameters, ...) recorded
        by the experiment harnesses.
    """

    points: np.ndarray
    weights: np.ndarray
    indices: Optional[np.ndarray] = None
    method: str = "unknown"
    metadata: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.points = check_points(self.points, name="coreset points")
        self.weights = check_weights(self.weights, self.points.shape[0], name="coreset weights")
        if self.indices is not None:
            self.indices = np.asarray(self.indices, dtype=np.int64)
            if self.indices.shape[0] != self.points.shape[0]:
                raise ValueError("indices must have one entry per coreset point")

    # ---------------------------------------------------------------- basic
    @property
    def size(self) -> int:
        """Number of points in the coreset."""
        return int(self.points.shape[0])

    @property
    def dimension(self) -> int:
        """Dimensionality of the coreset points."""
        return int(self.points.shape[1])

    @property
    def total_weight(self) -> float:
        """Sum of the coreset weights (≈ the represented number of points)."""
        return float(self.weights.sum())

    def __len__(self) -> int:
        return self.size

    # ------------------------------------------------------------ estimates
    def cost(self, centers: np.ndarray, *, z: int = 2) -> float:
        """Weighted ``cost_z`` of a candidate solution evaluated on the coreset.

        This is the estimator whose accuracy the coreset guarantee bounds:
        for a strong ε-coreset it lies within ``(1 ± ε)`` of the cost on the
        full dataset for every ``centers``.
        """
        return clustering_cost(self.points, centers, weights=self.weights, z=z)

    def subset(self, indices: np.ndarray) -> "Coreset":
        """Return a new coreset restricted to the given positions."""
        indices = np.asarray(indices, dtype=np.int64)
        return Coreset(
            points=self.points[indices],
            weights=self.weights[indices],
            indices=None if self.indices is None else self.indices[indices],
            method=self.method,
            metadata=dict(self.metadata),
        )

    def with_metadata(self, **entries: float) -> "Coreset":
        """Return the same coreset with extra metadata entries recorded."""
        metadata = dict(self.metadata)
        metadata.update(entries)
        return Coreset(
            points=self.points,
            weights=self.weights,
            indices=self.indices,
            method=self.method,
            metadata=metadata,
        )


def merge_coresets(coresets: Iterable[Coreset], *, method: Optional[str] = None) -> Coreset:
    """Concatenate coresets into a coreset of the union of their inputs.

    By the composition property (Section 2.3 of the paper) the result is an
    ε-coreset of the union whenever each part is an ε-coreset of its own
    input.  Weights are carried over unchanged so the total weight is the sum
    of the parts' total weights.
    """
    coresets = list(coresets)
    if not coresets:
        raise ValueError("at least one coreset is required to merge")
    dimension = coresets[0].dimension
    for coreset in coresets:
        if coreset.dimension != dimension:
            raise ValueError("all coresets must share the same dimensionality")
    points = np.concatenate([coreset.points for coreset in coresets], axis=0)
    weights = np.concatenate([coreset.weights for coreset in coresets], axis=0)
    names = {coreset.method for coreset in coresets}
    merged_method = method if method is not None else "+".join(sorted(names))
    return Coreset(points=points, weights=weights, indices=None, method=merged_method)


def trivial_coreset(points: np.ndarray, weights: Optional[np.ndarray] = None) -> Coreset:
    """Wrap a raw (weighted) dataset as a coreset of itself.

    Useful at the leaves of the merge-&-reduce tree and in tests: the full
    dataset is trivially a 0-coreset of itself.  The inputs are as
    :func:`~repro.utils.validation.check_points` and
    :func:`~repro.utils.validation.check_weights` return them (``weights``
    may be ``None``, unit weights); the :class:`Coreset` checks its copies.
    """
    if weights is None:
        weights = np.ones(points.shape[0], dtype=np.float64)
    return Coreset(points=points.copy(), weights=weights.copy(), indices=np.arange(points.shape[0]), method="identity")
