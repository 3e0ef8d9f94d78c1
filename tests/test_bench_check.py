"""Smoke test for the ``make bench-check`` regression replay.

Replays one small tracked workload at a single repeat in ``--check-only``
mode: the recorded ``BENCH_hotpaths.json`` must not be rewritten, and the
tracked ratio must stay within the regression tolerance.  Marked slow — it
re-times real workloads — and kept to the cheapest tracked entry so the
full suite stays fast.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH = REPO_ROOT / "benchmarks" / "bench_perf_hotpaths.py"
TRAJECTORY = REPO_ROOT / "BENCH_hotpaths.json"


@pytest.mark.slow
def test_bench_check_only_passes_and_preserves_json():
    before = TRAJECTORY.read_text()
    result = subprocess.run(
        [
            sys.executable,
            str(BENCH),
            "--check-only",
            "--repeats",
            "1",
            "--workloads",
            "quadtree_fit_n20k_d20",
        ],
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "check-only" in result.stdout
    assert TRAJECTORY.read_text() == before


@pytest.mark.slow
def test_bench_rejects_unknown_workload():
    result = subprocess.run(
        [sys.executable, str(BENCH), "--check-only", "--workloads", "nope"],
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode != 0
    assert "unknown workloads" in result.stderr


def test_trajectory_tracks_new_hot_paths():
    """The recorded trajectory must carry the Lloyd and merge-reduce rows
    with the speedups the optimization claims."""
    payload = json.loads(TRAJECTORY.read_text())
    by_component = {}
    for workload in payload["workloads"]:
        by_component.setdefault(workload["component"], []).append(workload)
    assert "lloyd" in by_component
    assert "merge_reduce" in by_component
    assert any(w["speedup"] >= 2.0 for w in by_component["lloyd"])
    assert any(w["speedup"] >= 2.0 for w in by_component["merge_reduce"])
    # The parallel engine rows track process-backend scaling at 1/2/4
    # workers.  Only presence is pinned, not a speedup: the achievable
    # ratio is a property of the recording machine's core count (a
    # single-core CI box records ~1x), and the regression guard compares
    # future runs against whatever this machine honestly measured.
    assert "parallel_shard" in by_component
    assert sorted(w["k"] for w in by_component["parallel_shard"]) == [1, 2, 4]
    # Constant-factor sweep rows (incremental quadtree keys, fused Lloyd
    # kernel, cached crude-cost bound): measured against the frozen
    # previously-optimized implementations, extending the workload list.
    # The recording machine measured 1.56-1.71x; the floor asserted here is
    # looser so a legitimate re-record on different hardware (the bench's
    # own 20% guard allows it) cannot wedge the tier-1 suite.
    assert all(w["speedup"] >= 1.2 for w in by_component["quadtree_fit_incr"])
    assert all(w["speedup"] >= 1.2 for w in by_component["lloyd_fused"])
    assert "merge_reduce_cached_bound" in by_component
    # Overlapped-reduction rows: both sides run the same async pipeline, so
    # only presence and the host-reduce-seconds extras are pinned — the
    # ratio is a property of the recording machine's core count.
    assert sorted(w["k"] for w in by_component["overlap_reduce"]) == [1, 2, 4]
    for workload in by_component["overlap_reduce"]:
        assert "host_reduce_seconds" in workload
        assert "host_reduce_seconds_baseline" in workload
        assert workload["reduces_offloaded"] > 0


def test_trajectory_rows_stamp_cores_and_informational_flags():
    """Every row records the cores it was measured on; multi-worker rows
    recorded with fewer cores than workers must be marked informational
    (excluded from the regression guard) instead of hiding behind a widened
    tolerance."""
    payload = json.loads(TRAJECTORY.read_text())
    for workload in payload["workloads"]:
        assert workload["cores"] >= 1
        if workload["component"] in ("parallel_shard", "overlap_reduce"):
            if workload["k"] > workload["cores"]:
                assert workload.get("informational") is True
            else:
                assert not workload.get("informational")


def test_informational_rows_bypass_regression_guard():
    """A catastrophic ratio on an informational row must not trip the guard."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_hotpaths", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    old = {
        "workloads": [
            {"name": "w2", "component": "parallel_shard", "informational": True,
             "seed_seconds": 1.0, "optimized_seconds": 1.0},
            {"name": "serial", "component": "quadtree_fit",
             "seed_seconds": 1.0, "optimized_seconds": 0.5},
        ]
    }
    new = [
        {"name": "w2", "component": "parallel_shard", "informational": True,
         "seed_seconds": 1.0, "optimized_seconds": 10.0},
        {"name": "serial", "component": "quadtree_fit",
         "seed_seconds": 1.0, "optimized_seconds": 0.9},
    ]
    messages = bench.check_regression(old, new)
    assert len(messages) == 1 and "serial" in messages[0]
