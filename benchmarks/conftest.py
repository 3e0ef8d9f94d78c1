"""Shared fixtures for the benchmark harnesses.

Every benchmark regenerates one table or figure of the paper by calling the
corresponding harness in :mod:`repro.experiments` exactly once (pytest-benchmark's
``pedantic`` mode with a single round) and printing the resulting rows.  Set
``REPRO_FULL_SCALE=1`` to run paper-sized instances; the default quick scale
keeps the whole suite to a few minutes.

Run with ``pytest benchmarks/ --benchmark-only -s`` to see the reproduced
tables inline.  Without pytest-benchmark (or with ``-p no:benchmark``) a
stand-in ``benchmark`` fixture makes the single call untimed, so the
benchmarks still check the paper's claims.
"""

from __future__ import annotations

from typing import Callable, Sequence

import pytest

from repro.config import ExperimentScale
from repro.evaluation.tables import ExperimentRow, format_table


class _PlainBenchmark:
    """Stand-in for pytest-benchmark's fixture: ``pedantic`` makes one plain call."""

    @staticmethod
    def pedantic(function, args=(), kwargs=None, **_):
        return function(*args, **(kwargs or {}))


class _BenchmarkFallback:
    """Plugin serving :class:`_PlainBenchmark` as the ``benchmark`` fixture."""

    @pytest.fixture
    def benchmark(self) -> _PlainBenchmark:
        return _PlainBenchmark()


def pytest_configure(config) -> None:
    # Registered only when pytest-benchmark is absent: a conftest fixture
    # would shadow the plugin's real one.
    if not config.pluginmanager.hasplugin("benchmark"):
        config.pluginmanager.register(_BenchmarkFallback(), "benchmark-fallback")


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    """Experiment scale used by every benchmark (quick unless REPRO_FULL_SCALE=1)."""
    return ExperimentScale.from_environment()


@pytest.fixture(scope="session")
def bench_scale() -> ExperimentScale:
    """A smaller scale for the heaviest sweeps so the default run stays fast."""
    base = ExperimentScale.from_environment()
    if base.dataset_fraction >= 1.0:
        return base
    return ExperimentScale(
        synthetic_n=6_000,
        synthetic_d=15,
        k_small=15,
        k_large=25,
        m_scalar=base.m_scalar,
        repetitions=2,
        dataset_fraction=0.01,
    )


@pytest.fixture
def run_once() -> Callable:
    """Run a harness exactly once under pytest-benchmark and return its rows."""

    def runner(benchmark, function, *args, **kwargs):
        return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner


@pytest.fixture
def show() -> Callable[[str, Sequence[ExperimentRow], Sequence[str]], None]:
    """Print a harness result table beneath the benchmark output."""

    def printer(title: str, rows: Sequence[ExperimentRow], value_names: Sequence[str]) -> None:
        print(f"\n=== {title} ===")
        print(format_table(rows, value_names=value_names))

    return printer
