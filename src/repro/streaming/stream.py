"""A minimal data-stream abstraction.

The streaming experiments of the paper partition the input into ``b`` blocks
and present them one at a time (Section 5.4).  :class:`DataStream` models
exactly that: an iterator over ``(points, weights)`` blocks that never
requires the consumer to hold the full dataset, which is what the
merge-&-reduce pipeline, BICO, and StreamKM++ consume.

Two contracts keep the "never hold the full dataset" promise real:

* the unshuffled path yields *contiguous slices* of the backing array (no
  gather copy, so a memory-mapped backing keeps its sequential read-ahead),
  and
* the unit-weight default is lazy — no ``np.ones(n)`` host array is ever
  materialised for the whole stream; each block receives its own small ones
  vector instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_integer, check_points, check_weights


Block = Tuple[np.ndarray, np.ndarray]


def _is_memmap_backed(array: np.ndarray) -> bool:
    """True when ``array`` is (a view chain over) a :class:`numpy.memmap`."""
    base = array
    while base is not None:
        if isinstance(base, np.memmap):
            return True
        base = getattr(base, "base", None)
    return False


def _check_stream_points(points: np.ndarray) -> np.ndarray:
    """Validate stream points without defeating a memory-mapped backing.

    For in-memory arrays this is :func:`check_points`.  For memmap-backed
    arrays the finiteness scan is skipped: reading every page of the file
    (and allocating an ``n*d``-byte boolean temporary) at construction time
    is exactly what the "never hold the full dataset" contract forbids.
    Shape and dtype are still checked; a block holding a non-finite value
    is rejected by the stream tree's ``add_blocks`` (before the tree takes
    any block of its batch), or by whichever other consumer it reaches.
    """
    if isinstance(points, np.ndarray) and _is_memmap_backed(points):
        if points.ndim != 2:
            raise ValueError(f"points must be 2-dimensional, got shape {points.shape}")
        if points.shape[0] == 0:
            raise ValueError("points must contain at least one element")
        if points.dtype != np.float64:
            raise ValueError(
                f"memory-mapped points must be float64, got {points.dtype}; "
                "converting would materialise the dataset"
            )
        return points
    return check_points(points)


def block_size_plan(n_points: int, n_blocks: int) -> Tuple[int, ...]:
    """Split ``n_points`` rows into exactly ``min(n_points, n_blocks)`` sizes.

    The remainder is spread over the *leading* blocks: ``n_points %
    n_blocks`` blocks of size ``ceil(n_points / n_blocks)`` followed by
    blocks of size ``floor(n_points / n_blocks)``, so no two blocks differ
    by more than one row and the sizes sum to ``n_points`` exactly.  When
    there are fewer points than requested blocks the plan degrades to one
    singleton block per point (a block must hold at least one row).
    """
    n_points = check_integer(n_points, name="n_points")
    n_blocks = check_integer(n_blocks, name="n_blocks")
    if n_points <= n_blocks:
        return (1,) * n_points
    floor, remainder = divmod(n_points, n_blocks)
    return (floor + 1,) * remainder + (floor,) * (n_blocks - remainder)


def _block_bounds(
    n: int, block_size: Optional[int], sizes: Optional[Sequence[int]]
) -> Iterator[Tuple[int, int]]:
    """Yield the ``[start, stop)`` row ranges of each block."""
    if sizes is not None:
        start = 0
        for size in sizes:
            yield start, start + size
            start += size
        return
    for start in range(0, n, block_size):
        yield start, min(start + block_size, n)


def _check_sizes(sizes: Sequence[int], n: int) -> Tuple[int, ...]:
    sizes = tuple(int(size) for size in sizes)
    if any(size < 1 for size in sizes):
        raise ValueError(f"every block size must be >= 1, got {sizes}")
    if sum(sizes) != n:
        raise ValueError(
            f"block sizes must sum to the number of points ({n}), got {sum(sizes)}"
        )
    return sizes


def iterate_blocks(
    points: np.ndarray,
    block_size: int,
    *,
    weights: Optional[np.ndarray] = None,
    shuffle: bool = False,
    seed: SeedLike = None,
    sizes: Optional[Sequence[int]] = None,
) -> Iterator[Block]:
    """Yield ``(points, weights)`` blocks of at most ``block_size`` rows.

    When ``shuffle`` is off, the yielded point blocks are **contiguous
    read-only views** of ``points`` — no per-block gather copy, which is
    what keeps a memory-mapped backing on its sequential read-ahead path.
    When no ``weights`` are given each block receives a fresh unit-weight
    vector of its own length; the full-stream ``np.ones(n)`` is never
    materialised.

    Parameters
    ----------
    points:
        The full dataset of shape ``(n, d)``.
    block_size:
        Maximum number of rows per block (ignored when ``sizes`` is given).
    weights:
        Optional per-point weights carried along with each block.
    shuffle:
        Randomly permute the rows before splitting — used to check that the
        streaming results do not depend on a favourable arrival order.
    seed:
        Randomness for the shuffle.
    sizes:
        Optional explicit per-block sizes (must sum to ``n``); this is how
        :meth:`DataStream.with_block_count` hits its exact block count.
    """
    points = _check_stream_points(points)
    n = points.shape[0]
    if sizes is not None:
        sizes = _check_sizes(sizes, n)
    else:
        block_size = check_integer(block_size, name="block_size")
    if weights is not None:
        weights = check_weights(weights, n)
    yield from _walk_blocks(points, block_size, weights, shuffle, seed, sizes)


def _walk_blocks(
    points: np.ndarray,
    block_size: int,
    weights: Optional[np.ndarray],
    shuffle: bool,
    seed: SeedLike,
    sizes: Optional[Tuple[int, ...]],
) -> Iterator[Block]:
    """:func:`iterate_blocks` over operands it (or a stream) already checked."""
    n = points.shape[0]
    if shuffle:
        order = as_generator(seed).permutation(n)
        for start, stop in _block_bounds(n, block_size, sizes):
            index = order[start:stop]
            block_weights = (
                weights[index]
                if weights is not None
                else np.ones(stop - start, dtype=np.float64)
            )
            yield points[index], block_weights
        return
    for start, stop in _block_bounds(n, block_size, sizes):
        block_weights = (
            weights[start:stop]
            if weights is not None
            else np.ones(stop - start, dtype=np.float64)
        )
        yield points[start:stop], block_weights


@dataclass
class DataStream:
    """A replayable stream over an in-memory dataset.

    This is the simulation vehicle for the paper's streaming experiments:
    the underlying array stands in for data arriving from disk or the
    network, and consumers only ever see one block at a time.

    Attributes
    ----------
    points:
        Backing array of shape ``(n, d)``.
    block_size:
        Rows per block.
    weights:
        Optional per-point weights.  ``None`` means unit weights; the
        default is kept lazy (each block gets its own ones vector) rather
        than materialised as a full ``np.ones(n)``.
    shuffle / seed:
        Whether (and how) to permute the arrival order on every replay.
    block_sizes:
        Optional explicit per-block size plan (overrides ``block_size``);
        set by :meth:`with_block_count` so the promised block count is hit
        exactly even when ``block_size`` does not divide ``n``.
    """

    points: np.ndarray
    block_size: int
    weights: Optional[np.ndarray] = None
    shuffle: bool = False
    seed: SeedLike = None
    block_sizes: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        self.points = _check_stream_points(self.points)
        if self.weights is not None:
            self.weights = check_weights(self.weights, self.points.shape[0])
        self.block_size = check_integer(self.block_size, name="block_size")
        if self.block_sizes is not None:
            self.block_sizes = _check_sizes(self.block_sizes, self.points.shape[0])

    def __iter__(self) -> Iterator[Block]:
        # Construction checked every field, so a replay does not rescan.
        return _walk_blocks(
            self.points, self.block_size, self.weights, self.shuffle, self.seed, self.block_sizes
        )

    @property
    def n_points(self) -> int:
        """Total number of points in the stream."""
        return int(self.points.shape[0])

    @property
    def n_blocks(self) -> int:
        """Number of blocks the stream will emit."""
        if self.block_sizes is not None:
            return len(self.block_sizes)
        return int(np.ceil(self.n_points / self.block_size))

    @property
    def dimension(self) -> int:
        """Dimensionality of the streamed points."""
        return int(self.points.shape[1])

    @classmethod
    def from_npy(
        cls,
        path: str,
        block_size: int,
        *,
        weights: Optional[np.ndarray] = None,
        shuffle: bool = False,
        seed: SeedLike = None,
        mmap_mode: str = "r",
    ) -> "DataStream":
        """Stream an on-disk ``.npy`` dataset without materialising it.

        The backing array is opened with ``np.load(..., mmap_mode="r")``, so
        only the rows of the block currently being consumed are ever copied
        into memory — the OS pages the rest in and out on demand.  This is
        what makes the "never hold the full dataset" docstring contract real
        for datasets larger than RAM, and it is the natural input for the
        sharded builder's ``shuffle=False`` mode (a random permutation would
        touch every page).

        The file must store a two-dimensional ``float64`` array: any other
        dtype would force :func:`numpy.asarray` to materialise a converted
        copy, silently breaking the contract, so it is rejected instead
        (convert once offline with ``array.astype(np.float64)``).  For the
        same reason the usual construction-time finiteness scan is skipped
        for memory-mapped data — a NaN in the file surfaces at the stream
        tree's ``add_blocks``, which rejects the batch holding it whole.

        Parameters
        ----------
        path:
            Path to the ``.npy`` file.
        block_size:
            Rows per block.
        weights / shuffle / seed:
            As for the in-memory constructor.  Note that ``shuffle=True``
            permutes *arrival order* only (blocks are gathered row sets), but
            gathering randomly scattered rows defeats sequential read-ahead —
            prefer pre-shuffled files for large datasets.
        mmap_mode:
            Forwarded to :func:`numpy.load`; the read-only default is what
            the streaming contract expects.
        """
        points = np.load(path, mmap_mode=mmap_mode)
        if points.ndim != 2:
            raise ValueError(
                f"{path!r} must store a 2-dimensional point array, got shape {points.shape}"
            )
        if points.dtype != np.float64:
            raise ValueError(
                f"{path!r} stores dtype {points.dtype}; from_npy requires float64 — "
                "converting lazily would materialise the dataset, defeating mmap"
            )
        return cls(
            points=points,
            block_size=block_size,
            weights=weights,
            shuffle=shuffle,
            seed=seed,
        )

    @classmethod
    def with_block_count(
        cls,
        points: np.ndarray,
        n_blocks: int,
        *,
        weights: Optional[np.ndarray] = None,
        shuffle: bool = False,
        seed: SeedLike = None,
    ) -> "DataStream":
        """Build a stream that splits ``points`` into exactly ``n_blocks`` blocks.

        The remainder rows are spread over the leading blocks (see
        :func:`block_size_plan`), so the stream emits exactly ``n_blocks``
        blocks whose sizes differ by at most one — the old ``ceil``-sized
        uniform split could silently emit fewer blocks than promised (6
        points over 4 blocks gave 3 blocks of 2).  With fewer points than
        requested blocks the stream degrades to one singleton block per
        point.  Validation goes through the stream-points path once, so a
        memory-mapped input is not finiteness-scanned here either.
        """
        stream = cls(points=points, block_size=1, weights=weights, shuffle=shuffle, seed=seed)
        stream.block_sizes = block_size_plan(stream.n_points, n_blocks)
        stream.block_size = max(stream.block_sizes)
        return stream
