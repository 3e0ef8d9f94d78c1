"""Geometric substrates: distances, random projections, grids and quadtrees.

These modules contain no clustering-specific logic; they provide the
Euclidean primitives the algorithms in :mod:`repro.clustering` and
:mod:`repro.core` are built on.  The grid module only draws the random
offset and hashes lattice rows: the spread reduction computes its own
lattices, one coordinate at a time, and keeps no cell dictionary.
"""

from repro.geometry.distances import (
    point_to_set_distances,
    squared_point_to_set_distances,
)
from repro.geometry.grid import random_grid_shift
from repro.geometry.johnson_lindenstrauss import (
    JohnsonLindenstraussEmbedding,
    jl_target_dimension,
)
from repro.geometry.quadtree import QuadtreeEmbedding, compute_spread

__all__ = [
    "point_to_set_distances",
    "squared_point_to_set_distances",
    "random_grid_shift",
    "JohnsonLindenstraussEmbedding",
    "jl_target_dimension",
    "QuadtreeEmbedding",
    "compute_spread",
]
