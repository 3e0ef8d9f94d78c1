"""Reproducible random-number-generator handling.

Every stochastic routine in the library accepts a ``seed`` argument that may
be ``None``, an integer, or an already-constructed
:class:`numpy.random.Generator`.  Centralising the conversion here keeps the
call sites short and guarantees that passing the same integer seed twice
produces identical runs, which the experiment harnesses rely on.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` for nondeterministic entropy, an ``int`` for a fixed seed,
        a :class:`numpy.random.SeedSequence`, or an existing generator
        (returned unchanged so that callers can thread a single generator
        through a pipeline).

    Returns
    -------
    numpy.random.Generator
        A generator that the caller owns.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise TypeError(
        f"seed must be None, an int, a SeedSequence or a Generator, got {type(seed)!r}"
    )


def as_seed_sequence(seed: SeedLike = None) -> np.random.SeedSequence:
    """Return a :class:`numpy.random.SeedSequence` for ``seed``.

    This is the root of the library's *spawn-keyed* determinism: the parallel
    execution engine derives per-shard (and per-block) child sequences from
    one root sequence with :func:`keyed_seed_sequence`, so the randomness a
    unit of work receives is a pure function of the user seed and the unit's
    index — never of the executor backend, the worker count, or the
    completion order.

    A ``Generator`` seed is consumed statefully (one integer is drawn to form
    the root entropy); ``None`` yields fresh OS entropy, i.e. a
    non-reproducible run, exactly as it does for :func:`as_generator`.
    """
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, np.random.Generator):
        return np.random.SeedSequence(random_seed_from(seed))
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.SeedSequence(None if seed is None else int(seed))
    raise TypeError(
        f"seed must be None, an int, a SeedSequence or a Generator, got {type(seed)!r}"
    )


def keyed_seed_sequence(base: np.random.SeedSequence, *key: int) -> np.random.SeedSequence:
    """Derive a child sequence of ``base`` addressed by an explicit key path.

    ``SeedSequence.spawn`` derives children by appending a *counter* to the
    spawn key, which ties the child's identity to how many spawns happened
    before it.  Addressing children by an explicit integer key path instead
    (``keyed_seed_sequence(base, namespace, index)``) keeps the derivation
    stateless: shard ``i`` receives the same child no matter how many other
    shards exist or in which order they are processed, which is what makes
    coresets bit-identical across executor backends and worker counts.
    """
    return np.random.SeedSequence(
        entropy=base.entropy,
        spawn_key=tuple(base.spawn_key) + tuple(int(part) for part in key),
    )


def random_seed_from(generator: np.random.Generator) -> int:
    """Draw a fresh integer seed from ``generator``.

    Useful when a routine needs to hand a *seed* (not a generator) to a
    subroutine while keeping the overall run reproducible.
    """
    return int(generator.integers(0, 2**63 - 1))


def weighted_index_draw(generator: np.random.Generator, mass: np.ndarray) -> int:
    """Draw one index with probability proportional to ``mass`` via searchsorted.

    This is the allocation-lean replacement for
    ``generator.choice(n, p=mass / mass.sum())`` used by the D²-sampling hot
    loops: one cumulative sum, one uniform variate, and one binary search —
    no normalised probability vector is materialised and no validation pass
    over ``p`` is paid per draw.  The selected index ``i`` satisfies
    ``cumulative[i - 1] <= u < cumulative[i]``, so zero-mass entries are
    never drawn and ``Pr[i] = mass[i] / total`` exactly (up to float
    rounding), matching ``generator.choice`` in distribution (the underlying
    uniform stream is consumed differently, so fixed-seed draws differ).

    Returns ``-1`` when the total mass is non-positive or non-finite; the
    caller chooses its own fallback (typically a uniform draw).
    """
    mass = np.asarray(mass, dtype=np.float64)
    if mass.size == 0:
        return -1
    cumulative = np.cumsum(mass)
    total = float(cumulative[-1])
    if not np.isfinite(total) or total <= 0.0:
        return -1
    index = int(np.searchsorted(cumulative, generator.random() * total, side="right"))
    return min(index, mass.size - 1)
