"""Quadtree-based ``Fast-kmeans++`` seeding.

The bottleneck of classical k-means++ is that after every newly selected
center the distance of all ``n`` points to that center must be computed,
giving ``Theta(ndk)`` total work.  Cohen-Addad et al. [23] avoid this by
performing the seeding in a quadtree (hierarchically separated tree) metric:
the distance between two points is determined solely by the deepest tree
level at which they share a cell, so the per-center update only has to touch
the points lying in the new center's cells — and each point's best distance
can only ever shrink, which bounds the total update work.

This module implements that practical variant (see DESIGN.md for the
substitution note).  Following [23], *several* independently shifted trees
are used and a point's distance to a center is the minimum over the trees:
a single random shift frequently separates close points at a shallow level
(the classic failure mode of quadtree metrics in higher dimensions), while
the minimum over a few independent shifts is sharply concentrated.  Seeding
probabilities and point-to-center assignments are maintained in this
multi-tree metric, yielding an ``O(d^z log k)``-approximate assignment
(Lemma 3.1 of [23]) whose runtime is governed by ``n log Delta`` rather than
``n k``.  That assignment is exactly what Algorithm 1 (the Fast-Coreset
construction) consumes.

Execution notes
---------------
The hot loop runs on the quadtree's Z-order cell layout
(:mod:`repro.geometry.quadtree`): every cell of every level is a contiguous
range of one permutation of the points, nested in its parent's range.  A
``register_center`` update finds the center's cell at each level from its
position in that order, deepest level first, and applies a masked minimum
to the part of the cell's range outside the deeper cell only: the deeper
level was swept just before with a smaller candidate distance, so none of
its points can improve on this one.  The per-tree level-to-distance mapping
is a precomputed table lookup.  When the compiled tier is enabled the whole
per-tree sweep dispatches to the ``fkpp_level_score`` kernel
(:mod:`repro.native`), which performs the same gather/compare/scatter in
one pass — bit-identical stores, so draws, assignments, and downstream
coresets are unchanged between dispatch modes (``REPRO_NATIVE=0`` runs the
numpy sweep, :func:`repro.native.reference_fkpp_level_score`).  The
spread estimate is computed once per fit and shared by every tree (or passed
in by the caller, e.g. :class:`repro.core.fast_coreset.FastCoreset` reusing
its spread-reduction diagnostic).

The D²-sampling mass is maintained *incrementally*: after each center the
invariant ``mass[i] == weights[i] * best_distance[i] ** z`` is restored by
rewriting only the entries whose best distance shrank, and each draw is a
cumulative sum plus one ``searchsorted`` binary search instead of
``generator.choice`` over a freshly normalised length-``n`` probability
vector.  The draw mechanism consumes the generator differently from the
seed implementation, so fixed-seed outputs differ from the seed revision —
but the selection law is unchanged (``Pr[i] = mass[i] / total``), which the
distributional tests in ``tests/test_rng.py`` and
``tests/test_perf_scaling.py`` cover.  Same-seed runs of *this*
implementation remain exactly reproducible.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro import observability as _obs
from repro.clustering.cost import ClusteringSolution, cost_to_assigned_centers
from repro.geometry.quadtree import QuadtreeEmbedding, compute_spread
from repro.native import get_kernel, reference_fkpp_level_score
from repro.utils.rng import SeedLike, as_generator, weighted_index_draw
from repro.utils.validation import check_integer, check_points, check_power, check_weights

@dataclass
class FastKMeansPlusPlus:
    """Tree-metric D²-sampling with incremental level-wise assignment updates.

    Parameters
    ----------
    k:
        Number of centers to select.
    z:
        Cost exponent: 1 for k-median, 2 for k-means.
    n_trees:
        Number of independently shifted quadtrees; the point-to-center
        distance is the minimum over the trees.  More trees give a sharper
        (less over-estimating) metric at a proportional construction cost.
    max_levels:
        Depth cap forwarded to each quadtree embedding.
    spread:
        Optional precomputed spread estimate shared by all trees; ``None``
        computes it once per :meth:`fit` (never once per tree).
    seed:
        Randomness for the quadtree shifts and the sampling.

    Attributes
    ----------
    trees_:
        The fitted :class:`~repro.geometry.quadtree.QuadtreeEmbedding` objects.
    center_indices_:
        Indices (into the input) of the selected centers.
    tree_distances_:
        For every point, the multi-tree distance to its assigned center at
        the end of the seeding.
    """

    k: int
    z: int = 2
    n_trees: int = 3
    max_levels: int = 32
    spread: Optional[float] = None
    seed: SeedLike = None
    trees_: List[QuadtreeEmbedding] = field(default_factory=list, init=False, repr=False)
    center_indices_: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    tree_distances_: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def fit(
        self,
        points: np.ndarray,
        *,
        weights: Optional[np.ndarray] = None,
    ) -> ClusteringSolution:
        """Run the seeding and return centers plus the tree-metric assignment.

        The returned :class:`ClusteringSolution` carries the assignment the
        seeding maintained in the (multi-)tree metric — not the Euclidean
        nearest-center assignment — together with the Euclidean cost of that
        assignment; this is the ``O(polylog k)``-approximate assignment that
        Fact 3.1 of the paper requires.
        """
        points = check_points(points)
        n = points.shape[0]
        self.k = check_integer(self.k, name="k")
        self.z = check_power(self.z)
        self.n_trees = check_integer(self.n_trees, name="n_trees")
        self.max_levels = check_integer(self.max_levels, name="max_levels")
        weights = check_weights(weights, n)
        generator = as_generator(self.seed)

        if self.k >= n:
            centers = points.copy()
            assignment = np.arange(n, dtype=np.int64)
            self.center_indices_ = assignment.copy()
            return ClusteringSolution(centers=centers, assignment=assignment, cost=0.0, z=self.z)

        spread = float(self.spread) if self.spread is not None else compute_spread(points, seed=generator)
        with _obs.span("fastkpp.tree_fits", trees=self.n_trees, n=n):
            self.trees_ = [
                QuadtreeEmbedding(max_levels=self.max_levels, seed=generator, spread=spread).fit(points)
                for _ in range(self.n_trees)
            ]
        best_distance = np.full(n, np.inf, dtype=np.float64)
        assignment = np.full(n, -1, dtype=np.int64)
        center_indices = np.empty(self.k, dtype=np.int64)
        # D²-sampling mass, kept in lockstep with ``best_distance`` (the
        # invariant mass[i] == weights[i] * best_distance[i] ** z holds after
        # every ``register_center`` once the first center is placed).  The
        # backing store is preallocated so the bound sweeps below can
        # capture it before the first center exists; ``mass`` stays ``None``
        # until then and no sweep writes the store while ``has_mass`` is
        # false.
        mass: Optional[np.ndarray] = None
        mass_values = np.empty(n, dtype=np.float64)
        weights = np.ascontiguousarray(weights)
        # One sweep closure per tree: ``sweep(ceiling, center_slot,
        # center_point, has_mass)``.  The compiled kernel is a binder over
        # the tree's own int32 arrays, so the per-center Python cost is a
        # single four-scalar call; the numpy tier binds the same arguments
        # to the numpy sweep.  Each tree's tree distance as a function of
        # the deepest shared level (index ``level + 1``, so level -1 maps to
        # slot 0) is precomputed by the embedding at fit time.  The
        # per-level ``candidate ** z`` table is raised element by element
        # on the np.float64 scalars of that table, so the mass stores are
        # the identical doubles in either dispatch mode.
        level_kernel = get_kernel("fkpp_level_score")
        tree_sweeps = []
        for tree in self.trees_:
            table = tree.level_distance_table_
            czs = np.array([np.float64(v) ** self.z for v in table], dtype=np.float64)
            arrays = (
                tree.order_, tree.position_, tree.level_offsets_, table, czs,
                best_distance, assignment, mass_values, weights,
            )
            if level_kernel is not None:
                tree_sweeps.append(level_kernel(*arrays))
            else:
                tree_sweeps.append(functools.partial(reference_fkpp_level_score, *arrays))
        # Compiled-tier D²-sampling draw over the preallocated mass store:
        # the kernel replays the numpy path's two observable steps — the
        # sequential cumsum total, then (only once the total proves finite
        # and positive, so the RNG stream advances exactly like the
        # fallback's) the first-prefix-above-u scan, which equals
        # ``searchsorted(cumsum, u, side="right")`` because D² mass is
        # non-negative.  The scan binary-searches the prefixes the total
        # recorded every 1024 points and walks one block.  Every partial sum
        # is the same IEEE add chain, so the drawn index is bit-identical in
        # either dispatch mode.
        draw_total = draw_scan = None
        draw_kernel = get_kernel("fkpp_weighted_draw")
        draw_binder = getattr(draw_kernel, "bind", None) if draw_kernel is not None else None
        if draw_binder is not None:
            draw_total, draw_scan = draw_binder(mass_values)
        draws = {"native": 0, "numpy": 0}

        def draw_mass_index() -> int:
            """One D² draw from ``mass`` (== ``weighted_index_draw``)."""
            if draw_total is not None:
                draws["native"] += 1
                total = draw_total()
                if not np.isfinite(total) or total <= 0.0:
                    return -1
                return min(draw_scan(generator.random() * total), n - 1)
            draws["numpy"] += 1
            return weighted_index_draw(generator, mass)

        def register_center(center_slot: int, center_point: int) -> None:
            """Shrink per-point distances given the newly selected center.

            For every tree the levels are scanned from deepest to shallowest;
            the scan stops as soon as the level's implied distance can no
            longer improve any point (it only grows toward the root), which
            is what keeps the total update work bounded.  Improved entries
            have their sampling mass rewritten in place — never the full
            array — so the per-center cost is proportional to the number of
            points the sweep visits, not to ``n``.
            """
            ceiling = float(best_distance.max())
            has_mass = mass is not None
            for sweep in tree_sweeps:
                sweep(ceiling, center_slot, center_point, has_mass)

        with _obs.span("fastkpp.seeding", k=self.k, n=n):
            first = weighted_index_draw(generator, weights)
            if first < 0:
                first = int(generator.integers(0, n))
            center_indices[0] = first
            with _obs.span("fastkpp.round", slot=0):
                register_center(0, first)
                # Points beyond the first center's cells at every level fall
                # back to the root distance of the first tree; from here on
                # every point is assigned.
                unassigned = assignment < 0
                if np.any(unassigned):
                    fallback = self.trees_[0].level_distance_table_[0]
                    best_distance[unassigned] = np.minimum(best_distance[unassigned], fallback)
                    assignment[unassigned] = 0
            np.multiply(weights, best_distance**self.z, out=mass_values)
            mass = mass_values

            for slot in range(1, self.k):
                chosen = draw_mass_index()
                if chosen < 0:
                    chosen = int(generator.integers(0, n))
                center_indices[slot] = chosen
                with _obs.span("fastkpp.round", slot=slot):
                    register_center(slot, chosen)
            _obs.counter_add("fastkpp.rounds", float(self.k))
            # Per-kernel dispatch attribution for --trace/--metrics: one
            # tree sweep per tree and center, all on one tier.
            tier = "numpy" if level_kernel is None else "native"
            _obs.counter_add(f"fastkpp.level_score.{tier}", float(self.k * len(tree_sweeps)))
            if draws["native"]:
                _obs.counter_add("fastkpp.draw.native", float(draws["native"]))
            if draws["numpy"]:
                _obs.counter_add("fastkpp.draw.numpy", float(draws["numpy"]))

        self.center_indices_ = center_indices
        self.tree_distances_ = best_distance
        centers = points[center_indices]
        euclidean_cost = cost_to_assigned_centers(points, centers, assignment, weights=weights, z=self.z)
        return ClusteringSolution(centers=centers, assignment=assignment, cost=euclidean_cost, z=self.z)


def fast_kmeans_plus_plus(
    points: np.ndarray,
    k: int,
    *,
    z: int = 2,
    weights: Optional[np.ndarray] = None,
    n_trees: int = 3,
    max_levels: int = 32,
    spread: Optional[float] = None,
    seed: SeedLike = None,
) -> ClusteringSolution:
    """Functional wrapper around :class:`FastKMeansPlusPlus`.

    Parameters
    ----------
    points:
        Array of shape ``(n, d)``.  For high-dimensional data the caller is
        expected to apply Johnson–Lindenstrauss reduction first, as
        Algorithm 1 of the paper does.
    k:
        Number of centers.
    z:
        1 for k-median, 2 for k-means.
    weights:
        Optional non-negative point weights.
    n_trees:
        Number of independently shifted quadtrees (minimum distance is used).
    max_levels:
        Quadtree depth cap.
    spread:
        Optional precomputed spread estimate shared by all trees (see
        :class:`FastKMeansPlusPlus`).
    seed:
        Randomness source.
    """
    solver = FastKMeansPlusPlus(
        k=k, z=z, n_trees=n_trees, max_levels=max_levels, spread=spread, seed=seed
    )
    return solver.fit(points, weights=weights)
