"""Transient memory of the per-point passes of a compression.

Each budget is a tracemalloc peak, as a multiple of the input's bytes
(n = 100k, d = 10: 8 MB).  numpy reports its data buffers to tracemalloc,
so a peak is the most the call held at once on top of what existed before
it; pages of an ``np.zeros`` array count even when never touched.  The
passes read the input in place or one fixed block of rows at a time, so
none may hold an ``(n, d)`` temporary, in either kernel tier: the numpy
stand-ins for the diameter bound's squared norms and the crude bound's
occupancy probe work one row block at a time too.  Only the numpy
k-means++ round keeps its ``(n, d)`` temporaries, so the sensitivity
sampler's budget applies to the compiled tier only.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.clustering.cost import ClusteringSolution, cost_to_assigned_centers
from repro.core.sensitivity import SensitivitySampling, sensitivity_scores
from repro.core.spread_reduction import crude_cost_upper_bound
from repro.data.synthetic import gaussian_mixture
from repro.geometry.distances import diameter_upper_bound
from repro.geometry.quadtree import compute_spread
from repro.native import kernel_provider

N, D = 100_000, 10


def _compiled(kernel):
    return pytest.mark.skipif(
        kernel_provider(kernel) == "fallback",
        reason=f"the numpy stand-in for {kernel} keeps its (n, d) temporaries",
    )


@pytest.fixture(scope="module")
def points():
    """The e2e closed-loop input at 100k rows (its 1e4 outlier included)."""
    points = gaussian_mixture(N, D, n_clusters=50, gamma=1.0, seed=4).points
    points[:20, 0] += 1e4
    return points


@pytest.fixture(scope="module")
def solution(points):
    rng = np.random.default_rng(0)
    return ClusteringSolution(
        centers=points[:100].copy(), assignment=rng.integers(0, 100, N).astype(np.int64)
    )


def peak_ratio(call, points):
    """The call's tracemalloc peak over the input's bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / points.nbytes


def test_compute_spread(points):
    assert peak_ratio(lambda: compute_spread(points, seed=0), points) < 0.5


def test_cost_to_assigned_centers(points, solution):
    def call():
        cost_to_assigned_centers(points, solution.centers, solution.assignment)

    assert peak_ratio(call, points) < 0.5


def test_sensitivity_scores(points, solution):
    assert peak_ratio(lambda: sensitivity_scores(points, solution), points) < 0.5


def test_diameter_upper_bound(points):
    assert peak_ratio(lambda: diameter_upper_bound(points), points) < 0.1


def test_crude_cost_upper_bound(points):
    assert peak_ratio(lambda: crude_cost_upper_bound(points, 100, seed=0), points) < 0.5


@_compiled("kmeanspp_round")
def test_sensitivity_sampling(points):
    def call():
        SensitivitySampling(100).sample(points, 1000, seed=0)

    assert peak_ratio(call, points) < 1.0
