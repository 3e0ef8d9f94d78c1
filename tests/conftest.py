"""Shared fixtures for the test suite.

The fixtures keep dataset sizes small (a few thousand points at most) so the
whole suite runs in a couple of minutes while still exercising every code
path of the library.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ExperimentScale
from repro.data.synthetic import (
    benchmark_dataset,
    c_outlier_dataset,
    gaussian_mixture,
    geometric_dataset,
)
from repro.native import registry


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """A session-wide generator for tests that need ad-hoc randomness."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def blobs() -> np.ndarray:
    """A small, well-separated Gaussian mixture (the easy case)."""
    return gaussian_mixture(n=1500, d=8, n_clusters=6, gamma=0.0, seed=7).points


@pytest.fixture(scope="session")
def imbalanced_blobs() -> np.ndarray:
    """A Gaussian mixture with strong class imbalance (gamma = 4)."""
    return gaussian_mixture(n=1500, d=8, n_clusters=6, gamma=4.0, seed=11).points


@pytest.fixture(scope="session")
def outlier_data() -> np.ndarray:
    """The c-outlier dataset: a tiny far-away cluster uniform sampling misses."""
    return c_outlier_dataset(n=2000, d=6, n_outliers=12, outlier_distance=500.0, seed=3).points


@pytest.fixture(scope="session")
def geometric_data() -> np.ndarray:
    """The geometric dataset: simplex vertices with decaying masses."""
    return geometric_dataset(n=2000, d=12, k=10, c=50, seed=5).points


@pytest.fixture(scope="session")
def benchmark_data() -> np.ndarray:
    """The benchmark dataset of [57] at a small scale."""
    return benchmark_dataset(k=12, d=10, n=1800, seed=9).points


@pytest.fixture(scope="session")
def tiny_scale() -> ExperimentScale:
    """An experiment scale small enough for integration tests of the harnesses."""
    return ExperimentScale(
        synthetic_n=1200,
        synthetic_d=8,
        k_small=8,
        k_large=10,
        m_scalar=10,
        repetitions=1,
        dataset_fraction=0.01,
    )


@pytest.fixture
def fail_verifier(monkeypatch):
    """``fail(name)`` fails that kernel's verifier, as a numpy build with
    another einsum accumulation order would, and returns the demotion
    reason; every verifier is restored afterwards."""

    def verify(kernel):
        raise RuntimeError("injected einsum-order mismatch")

    def fail(name):
        monkeypatch.setattr(registry._KERNELS[name], "verify", verify)
        registry.refresh()
        return "cc: failed verification: injected einsum-order mismatch"

    yield fail
    monkeypatch.undo()
    registry.refresh()


@pytest.fixture
def failing_kmeanspp_verifier(fail_verifier):
    """Fail ``kmeanspp_round``'s verifier; the demotion reason."""
    return fail_verifier("kmeanspp_round")
