"""Frozen recompute-from-window oracle for the windowed streaming tree.

This module pins the *semantics* of :mod:`repro.streaming.window` by an
independent, naive reimplementation.  :class:`NaiveWindowReference` keeps
**every raw block ever streamed** and recomputes the live window — member
blocks, decayed weights, bounding box — from scratch on every query, with
its own arithmetic for expiry (``index > now - window_blocks``) and decay
(``0.5 ** ((now - then) / half_life)`` applied in one step per block, never
incrementally).  The windowed tree must agree with it:

* the tree's live bucket ranges must cover exactly the oracle's live block
  indices (``tests/test_windowed_stream.py``),
* in lossless configurations (``coreset_size`` at least the window size)
  the tree's retained point multiset must match :meth:`window_points`
  exactly and its weights the single-step decay factors to float rounding
  (the tree applies the same mathematical factor as a telescoping product
  across folds), and
* :meth:`compress` — one direct compression of the recomputed window — is
  the distortion-parity and perf baseline (``windowed_stream_*`` bench
  rows): what a consumer would pay to rebuild the window summary from
  retained raw blocks on every query.

The expiry and decay arithmetic here is deliberately **not** imported from
the live :class:`~repro.streaming.window.WindowPolicy` objects — a change
to the live semantics must consciously re-freeze this file for the
equivalence claim to stay meaningful.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.base import CoresetConstruction
from repro.core.coreset import Coreset
from repro.utils.rng import SeedLike


class NaiveWindowReference:
    """Keep all raw blocks; recompute the live window from scratch per query.

    Parameters
    ----------
    window_blocks:
        Sliding count window: only the last ``window_blocks`` blocks are
        live.  ``None`` keeps every block live.
    half_life:
        Exponential decay: the weight of a block stamped ``t`` observed at
        time ``T`` is scaled by ``0.5 ** ((T - t) / half_life)``.  ``None``
        applies no decay.  Timestamps default to block indices.
    """

    def __init__(
        self,
        *,
        window_blocks: Optional[int] = None,
        half_life: Optional[float] = None,
    ) -> None:
        if window_blocks is not None and int(window_blocks) < 1:
            raise ValueError(f"window_blocks must be >= 1, got {window_blocks}")
        if half_life is not None and not float(half_life) > 0:
            raise ValueError(f"half_life must be positive, got {half_life}")
        self.window_blocks = None if window_blocks is None else int(window_blocks)
        self.half_life = None if half_life is None else float(half_life)
        self._blocks: List[Tuple[float, np.ndarray, np.ndarray]] = []

    # --------------------------------------------------------------- ingest
    def add_block(
        self,
        points: np.ndarray,
        weights: Optional[np.ndarray] = None,
        timestamp: Optional[float] = None,
    ) -> None:
        """Record one block verbatim (copied — the oracle owns its history)."""
        points = np.array(points, dtype=np.float64)
        if weights is None:
            weights = np.ones(points.shape[0], dtype=np.float64)
        else:
            weights = np.array(weights, dtype=np.float64)
        if weights.shape[0] != points.shape[0]:
            raise ValueError("weights must have one entry per point")
        stamp = float(len(self._blocks)) if timestamp is None else float(timestamp)
        if self._blocks and stamp < self._blocks[-1][0]:
            raise ValueError(
                f"timestamps must be non-decreasing: got {stamp} after {self._blocks[-1][0]}"
            )
        self._blocks.append((stamp, points, weights))

    @property
    def blocks_seen(self) -> int:
        return len(self._blocks)

    # --------------------------------------------------------------- queries
    def live_indices(self) -> List[int]:
        """Block indices inside the current window, recomputed from scratch."""
        now = len(self._blocks) - 1
        if now < 0:
            return []
        if self.window_blocks is None:
            return list(range(now + 1))
        return [index for index in range(now + 1) if index > now - self.window_blocks]

    def decay_factor(self, then: float) -> float:
        """Single-step decay of mass stamped ``then`` at the newest stamp."""
        if self.half_life is None or not self._blocks:
            return 1.0
        now = self._blocks[-1][0]
        return float(0.5 ** ((now - then) / self.half_life))

    def window_points(self) -> Tuple[np.ndarray, np.ndarray]:
        """The live window as ``(points, decayed weights)``, arrival order."""
        live = self.live_indices()
        if not live:
            raise ValueError("the window is empty: no blocks were added")
        points = np.concatenate([self._blocks[index][1] for index in live], axis=0)
        weights = np.concatenate(
            [
                self._blocks[index][2] * self.decay_factor(self._blocks[index][0])
                for index in live
            ],
            axis=0,
        )
        return points, weights

    def window_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Bounding box ``(low, high)`` of the live window's raw points."""
        points, _ = self.window_points()
        return points.min(axis=0), points.max(axis=0)

    def compress(
        self,
        sampler: CoresetConstruction,
        coreset_size: int,
        *,
        seed: SeedLike = None,
    ) -> Coreset:
        """One direct compression of the recomputed window.

        This is the "rebuild from retained raw blocks" baseline: everything
        the window holds is concatenated and compressed in a single
        sampler call (no tree, no caches, no incremental state).
        """
        points, weights = self.window_points()
        size = min(int(coreset_size), points.shape[0])
        if points.shape[0] <= size:
            return Coreset(
                points=points,
                weights=weights,
                indices=np.arange(points.shape[0]),
                method="naive_window",
            )
        return sampler.sample(points, size, weights=weights, seed=seed)
