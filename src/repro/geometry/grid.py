"""Randomly shifted grids.

Algorithms 2 and 3 of the paper place an axis-aligned grid with a random
offset over the data and reason about which points land in the same cell:
a point ``p`` lies in the cell with lattice row ``floor((p - shift) / side)``,
and the probability that two points are separated by the grid is bounded by
``sqrt(d) * ||p - q|| / side`` (Lemma 4.3).  This module draws the offset,
hashes lattice rows to one key each (Algorithm 2 counts distinct keys) and
states the lemma's bound; :mod:`repro.core.spread_reduction` builds the
lattices it needs itself.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive


def random_grid_shift(dimension: int, side: float, seed: SeedLike = None) -> np.ndarray:
    """Draw the random grid offset used by the cell decomposition.

    The paper draws a single scalar uniformly from ``[0, side]`` and uses it
    for every coordinate (Algorithm 2 line 9); an independent shift per
    coordinate satisfies the same separation lemma, and we follow the paper's
    single-scalar convention for fidelity.
    """
    side = check_positive(side, name="side")
    generator = as_generator(seed)
    shift = float(generator.uniform(0.0, side))
    return np.full(dimension, shift, dtype=np.float64)


#: Cache of per-dimension random multipliers for the row-hashing scheme.
_HASH_MULTIPLIER_CACHE: Dict[int, np.ndarray] = {}


def _hash_multipliers(dimension: int) -> np.ndarray:
    """Deterministic pseudo-random odd 64-bit multipliers, one per coordinate.

    With independent uniform multipliers the multilinear hash below has a
    per-pair collision probability of at most ``2^{-62}``, so collisions are
    practically impossible for any realistic number of cells.
    """
    cached = _HASH_MULTIPLIER_CACHE.get(dimension)
    if cached is None:
        generator = np.random.default_rng(0xC0FFEE)
        cached = generator.integers(1, 2**63 - 1, size=dimension, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
        _HASH_MULTIPLIER_CACHE[dimension] = cached
    return cached


def hash_rows(lattice: np.ndarray) -> np.ndarray:
    """Hash integer lattice rows to a single ``uint64`` key per row.

    This is the vectorised replacement for inserting d-dimensional cell
    coordinates into a dictionary (Algorithm 2): the coordinates are combined
    with independent pseudo-random odd multipliers modulo ``2^64``
    (multilinear hashing).  Collisions are possible in principle but have
    probability about ``n^2 / 2^63`` and at worst merge two grid cells, which
    only perturbs constants in the crude approximation.
    """
    lattice = np.ascontiguousarray(lattice, dtype=np.int64).view(np.uint64)
    multipliers = _hash_multipliers(lattice.shape[1])
    with np.errstate(over="ignore"):
        keys = (lattice * multipliers[None, :]).sum(axis=1, dtype=np.uint64)
    return keys


def separation_probability_bound(p: np.ndarray, q: np.ndarray, side: float) -> float:
    """Upper bound from Lemma 4.3 on the probability that ``p`` and ``q`` are split.

    ``Pr[p, q in different cells] <= sqrt(d) * ||p - q|| / side`` (capped at
    one).  Exposed for the tests that check the lemma empirically.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    side = check_positive(side, name="side")
    distance = float(np.linalg.norm(p - q))
    return min(1.0, np.sqrt(p.shape[0]) * distance / side)
