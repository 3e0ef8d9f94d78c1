"""Helpers that compare quadtree partitions independently of cell labels.

A fitted :class:`~repro.geometry.quadtree.QuadtreeEmbedding` labels its
cells by their rank in the tree's Z-order, the seed by the rank of a hash
key, and an exact lattice row has no rank at all; two labelings describe
the same partition exactly when their labels correspond one to one.
"""

import numpy as np


def cell_labels(tree, level: int) -> np.ndarray:
    """Every point's level-``level`` cell identifier, from the tree's ranges."""
    offsets = tree.level_offsets_[level]
    labels = np.empty(tree.n_points_, dtype=np.int64)
    labels[tree.order_] = np.repeat(np.arange(offsets.shape[0] - 1), np.diff(offsets))
    return labels


def assert_same_partition(labels, reference, message: str = "") -> None:
    """Assert that two per-point labelings are a bijection of each other."""
    labels = np.asarray(labels, dtype=np.int64)
    reference = np.asarray(reference, dtype=np.int64)
    assert labels.shape == reference.shape, message
    pairs = np.unique(np.stack([labels, reference]), axis=1).shape[1]
    assert pairs == np.unique(labels).size == np.unique(reference).size, message


def lattice_rows(points: np.ndarray, tree, level: int) -> np.ndarray:
    """The seed's integer lattice rows of ``level``: ``floor(shifted / side)``."""
    shifted = points - tree.origin_[None, :] + tree.shift_[None, :]
    return np.floor(shifted / tree.cell_side(level)).astype(np.int64)


def lattice_labels(points: np.ndarray, tree, level: int) -> np.ndarray:
    """Cell labels from the exact integer lattice rows of ``level`` (no hash)."""
    _, inverse = np.unique(lattice_rows(points, tree, level), axis=0, return_inverse=True)
    return inverse.reshape(-1)


def assert_refines(labels, coarser, message: str = "") -> None:
    """Assert that every cell of ``labels`` lies inside one cell of ``coarser``."""
    pairs = np.unique(np.stack([np.asarray(labels), np.asarray(coarser)]), axis=1).shape[1]
    assert pairs == np.unique(labels).size, message
