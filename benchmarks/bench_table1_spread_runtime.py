"""Benchmark regenerating Table 1: Fast-kmeans++ runtime as r ~ log(spread) grows.

Paper shape to reproduce: the mean seeding runtime increases monotonically
with ``r`` (13.5 s → 16.2 s for r = 20 → 50 on the authors' machine); here
the absolute numbers are smaller but the monotone growth with the quadtree
depth must hold.
"""

from repro.experiments import table1_spread_runtime


def test_table1_spread_runtime(benchmark, scale, run_once, show):
    rows = run_once(
        benchmark,
        table1_spread_runtime,
        scale=scale,
        r_values=(10, 20, 30, 40),
        k=min(50, scale.k_small),
        repetitions=max(1, scale.repetitions - 1),
    )
    show(
        "Table 1: Fast-kmeans++ runtime vs r ~ log(spread)",
        rows,
        ["runtime_mean", "runtime_std", "depth"],
    )
    runtimes = [row.values["runtime_mean"] for row in rows]
    # The paper's qualitative claim: runtime grows with the spread parameter.
    assert runtimes[-1] >= runtimes[0] * 0.9
    assert len(rows) == 4
