"""Argument-validation helpers shared by the public API.

Keeping validation in one place gives users consistent, actionable error
messages (the guide's "explicit is better than implicit") and keeps the
algorithm implementations free of defensive boilerplate.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def check_points(points: np.ndarray, *, name: str = "points") -> np.ndarray:
    """Validate a point set and return it as a C-contiguous float64 ``(n, d)`` array.

    Raises ``ValueError`` unless the input has two dimensions, at least one
    row and only finite values.  This is the check the public entries make
    once; the stages they call take its output as given.
    """
    array = np.asarray(points, dtype=np.float64)
    if array.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {array.shape}")
    if array.shape[0] == 0:
        raise ValueError(f"{name} must contain at least one element")
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} contains NaN or infinite values")
    return np.ascontiguousarray(array)


def check_weights(
    weights: Optional[np.ndarray],
    n: int,
    *,
    name: str = "weights",
) -> np.ndarray:
    """Validate per-point weights or materialise the unit-weight default.

    Parameters
    ----------
    weights:
        ``None`` (meaning every point has weight one) or an array of length
        ``n`` with non-negative finite entries.
    n:
        Expected number of weights.
    name:
        Name used in error messages.
    """
    if weights is None:
        return np.ones(n, dtype=np.float64)
    array = np.asarray(weights, dtype=np.float64)
    if array.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {array.shape}")
    if array.shape[0] != n:
        raise ValueError(f"{name} must have length {n}, got {array.shape[0]}")
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} contains NaN or infinite values")
    if np.any(array < 0):
        raise ValueError(f"{name} must be non-negative")
    return array


def check_integer(value: int, *, name: str, minimum: int = 1) -> int:
    """Validate an integer parameter such as ``k`` or a sample size."""
    if not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return int(value)


def check_positive(value: float, *, name: str) -> float:
    """Validate a strictly positive real parameter such as ``epsilon``."""
    value = float(value)
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite number, got {value}")
    return value


def check_power(z: int, *, name: str = "z") -> int:
    """Validate the cost exponent: 1 for k-median, 2 for k-means."""
    if z not in (1, 2):
        raise ValueError(f"{name} must be 1 (k-median) or 2 (k-means), got {z}")
    return int(z)


def check_sample_size(m: int, n: int, *, name: str = "m") -> int:
    """Validate a requested sample size against the population size."""
    m = check_integer(m, name=name, minimum=1)
    if m > n:
        raise ValueError(f"{name}={m} exceeds the number of available points n={n}")
    return m
