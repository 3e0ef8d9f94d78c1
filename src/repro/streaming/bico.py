"""BICO: BIRCH-style clustering-feature trees for k-means coresets.

BICO [38] marries the SIGMOD test-of-time winning BIRCH [58] data structure
with coreset reasoning: the stream is absorbed into a bounded number of
*clustering features* (CFs) — sufficient statistics ``(weight, linear sum,
squared sum)`` of a group of nearby points — and the coreset consists of one
weighted point (the CF centroid) per feature.  A global error threshold ``T``
controls how much k-means cost may be hidden inside a single feature; when
the number of features exceeds the budget, ``T`` doubles and the features are
rebuilt, exactly as in BIRCH.

The paper evaluates BICO as a state-of-the-art streaming competitor and
finds that it "performs consistently poorly on the coreset distortion
metric" (Table 6) while remaining a reasonable quantiser.  This
implementation processes points in vectorised blocks rather than strictly
one at a time — a standard engineering change that preserves the insertion
rule (merge into the nearest feature if the cost increase stays below ``T``,
otherwise open a new feature) while keeping the numpy implementation fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.base import CoresetConstruction
from repro.core.coreset import Coreset
from repro.geometry.distances import squared_point_to_set_distances
from repro.utils.rng import SeedLike
from repro.utils.validation import check_integer, check_points, check_weights


@dataclass
class ClusteringFeature:
    """Sufficient statistics of a group of points (a BIRCH/BICO node).

    Attributes
    ----------
    weight:
        Total weight of the absorbed points.
    linear_sum:
        Component-wise weighted sum of the absorbed points.
    squared_sum:
        Weighted sum of squared norms of the absorbed points.
    """

    weight: float
    linear_sum: np.ndarray
    squared_sum: float

    @property
    def centroid(self) -> np.ndarray:
        """Weighted mean of the absorbed points."""
        return self.linear_sum / self.weight

    @property
    def internal_cost(self) -> float:
        """k-means cost hidden inside the feature (SSE around its centroid)."""
        return max(0.0, self.squared_sum - float(self.linear_sum @ self.linear_sum) / self.weight)

    def merge_cost(self, point: np.ndarray, weight: float) -> float:
        """Increase in internal cost caused by absorbing ``point``.

        Uses the standard identity ``delta = w * W / (w + W) * ||p - c||^2``
        where ``W`` is the feature weight and ``c`` its centroid.
        """
        delta = point - self.centroid
        return float(weight * self.weight / (weight + self.weight) * (delta @ delta))

    def absorb(self, point: np.ndarray, weight: float) -> None:
        """Add a weighted point to the feature."""
        self.weight += weight
        self.linear_sum = self.linear_sum + weight * point
        self.squared_sum += weight * float(point @ point)

    @classmethod
    def from_point(cls, point: np.ndarray, weight: float) -> "ClusteringFeature":
        """Create a feature holding a single weighted point."""
        point = np.asarray(point, dtype=np.float64)
        return cls(weight=float(weight), linear_sum=weight * point, squared_sum=weight * float(point @ point))


class BicoCoreset(CoresetConstruction):
    """BICO streaming coreset construction.

    Parameters
    ----------
    coreset_size:
        Maximum number of clustering features (and therefore coreset points).
    block_size:
        Number of stream points processed per vectorised insertion step.
    z:
        Recorded for bookkeeping; BICO targets k-means (``z = 2``) only, as
        in the paper.
    seed:
        Unused by the deterministic insertion rule but kept for interface
        compatibility.
    """

    name = "bico"

    def __init__(
        self,
        coreset_size: int,
        *,
        block_size: int = 2048,
        z: int = 2,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(z=z, seed=seed)
        self.coreset_size = check_integer(coreset_size, name="coreset_size")
        self.block_size = check_integer(block_size, name="block_size")
        self.reset()

    # --------------------------------------------------------------- state
    def reset(self) -> None:
        """Forget all absorbed points and restart with an empty feature set."""
        self.features: List[ClusteringFeature] = []
        self.threshold: float = 0.0
        self.points_seen: int = 0
        self.rebuilds: int = 0

    def _centroid_matrix(self) -> np.ndarray:
        return np.stack([feature.centroid for feature in self.features], axis=0)

    def _feature_weights(self) -> np.ndarray:
        return np.array([feature.weight for feature in self.features], dtype=np.float64)

    # ----------------------------------------------------------- insertion
    def insert_block(self, points: np.ndarray, weights: Optional[np.ndarray] = None) -> None:
        """Absorb a block of (weighted) points into the feature set."""
        points = check_points(points)
        weights = check_weights(weights, points.shape[0])
        for start in range(0, points.shape[0], self.block_size):
            stop = min(start + self.block_size, points.shape[0])
            self._insert_chunk(points[start:stop], weights[start:stop])
        self.points_seen += points.shape[0]

    def _insert_chunk(self, points: np.ndarray, weights: np.ndarray) -> None:
        if not self.features:
            self.features.append(ClusteringFeature.from_point(points[0], weights[0]))
            points = points[1:]
            weights = weights[1:]
            if points.shape[0] == 0:
                return
        centroids = self._centroid_matrix()
        feature_weights = self._feature_weights()
        squared, nearest = squared_point_to_set_distances(points, centroids)
        merge_costs = weights * feature_weights[nearest] / (weights + feature_weights[nearest]) * squared
        absorb = merge_costs <= self.threshold
        for index in np.flatnonzero(absorb):
            self.features[int(nearest[index])].absorb(points[index], float(weights[index]))
        for index in np.flatnonzero(~absorb):
            self.features.append(ClusteringFeature.from_point(points[index], float(weights[index])))
        if len(self.features) > self.coreset_size:
            self._rebuild()

    def _rebuild(self) -> None:
        """Double the threshold and re-insert the feature centroids.

        Mirrors BIRCH's rebuilding step: the features' centroids (with their
        accumulated weights) are treated as a weighted dataset and absorbed
        into a fresh structure under the relaxed threshold, shrinking the
        feature count while preserving total weight and linear sums.  One
        centroid matrix per pass holds the new features' centroids (row
        ``i`` is ``self.features[i].centroid``), so each reinsertion rewrites
        one row instead of re-stacking every centroid.
        """
        while len(self.features) > self.coreset_size:
            self.threshold = self._next_threshold()
            old_features = self.features
            self.features = []
            self.rebuilds += 1
            centroids = np.empty((len(old_features), old_features[0].linear_sum.shape[0]))
            for feature in old_features:
                self._reinsert_feature(feature, centroids)

    def _next_threshold(self) -> float:
        if self.threshold > 0:
            return 2.0 * self.threshold
        # First overflow: seed the threshold with the smallest pairwise merge
        # cost among current centroids so at least one merge becomes possible.
        centroids = self._centroid_matrix()
        weights = self._feature_weights()
        best = np.inf
        # Each feature against all the others: np.delete drops its own row.
        for i in range(len(self.features)):
            others = np.delete(centroids, i, axis=0)
            other_weights = np.delete(weights, i)
            deltas = others - centroids[i]
            distances = np.einsum("ij,ij->i", deltas, deltas)
            costs = weights[i] * other_weights / (weights[i] + other_weights) * distances
            best = min(best, float(costs.min()) if costs.size else np.inf)
        if not np.isfinite(best) or best <= 0:
            best = 1e-12
        return best

    def _reinsert_feature(self, feature: ClusteringFeature, centroids: np.ndarray) -> None:
        """Merge ``feature`` into its nearest feature or append it.

        ``centroids[:len(self.features)]`` must hold the current features'
        centroids; the merged or appended row is rewritten here.
        """
        count = len(self.features)
        centroid = feature.centroid
        if count == 0:
            self.features.append(feature)
            centroids[0] = centroid
            return
        deltas = centroids[:count] - centroid
        squared = np.einsum("ij,ij->i", deltas, deltas)
        nearest = int(np.argmin(squared))
        target = self.features[nearest]
        merge_cost = (
            feature.weight * target.weight / (feature.weight + target.weight) * float(squared[nearest])
        )
        if merge_cost <= self.threshold:
            target.weight += feature.weight
            target.linear_sum = target.linear_sum + feature.linear_sum
            target.squared_sum += feature.squared_sum
            centroids[nearest] = target.centroid
        else:
            self.features.append(feature)
            centroids[count] = centroid

    # -------------------------------------------------------------- output
    def to_coreset(self) -> Coreset:
        """Return the current compression: one weighted centroid per feature."""
        if not self.features:
            raise ValueError("no points have been inserted")
        points = self._centroid_matrix()
        weights = self._feature_weights()
        return Coreset(
            points=points,
            weights=weights,
            indices=None,
            method=self.name,
            metadata={
                "threshold": self.threshold,
                "rebuilds": float(self.rebuilds),
                "points_seen": float(self.points_seen),
            },
        )

    # --------------------------------------------- CoresetConstruction API
    def _sample(
        self,
        points: np.ndarray,
        weights: np.ndarray,
        m: int,
        seed: SeedLike,
        spread: Optional[float] = None,
        cost_bound: Optional[float] = None,
    ) -> Coreset:
        """Static-setting interface: stream the whole dataset through BICO."""
        instance = BicoCoreset(coreset_size=m, block_size=self.block_size, z=self.z, seed=seed)
        instance.insert_block(points, weights)
        return instance.to_coreset()
