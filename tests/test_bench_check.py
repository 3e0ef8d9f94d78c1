"""Tests for the hot-path bench's recorded trajectory and regression guard.

The smoke tests drive ``--check-only`` in process on one tracked row whose
timings are replayed from ``BENCH_hotpaths.json`` rather than re-timed: the
recorded timings pass, a replay 25% slower fails, and neither rewrites the
file.  Host speed therefore cannot fail them; ``make bench-check-serial``
is the timing gate.  The guard tests pin which rows it skips
(informational ones) and which it fails with a reason instead of a ratio
(rows whose compiled kernel was demoted).
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.native import kernel_provider, use_native

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH = REPO_ROOT / "benchmarks" / "bench_perf_hotpaths.py"
TRAJECTORY = REPO_ROOT / "BENCH_hotpaths.json"


#: The tracked row the ``--check-only`` smoke tests replay.
SMOKE_ROW = "quadtree_fit_n20k_d20"


def _replay_check_only(monkeypatch, capsys, slowdown):
    """Run ``--check-only`` on :data:`SMOKE_ROW` with its recorded timings,
    the optimized side scaled by ``slowdown``, in place of a timed run."""
    bench = _load_bench()
    recorded = {w["name"]: w for w in json.loads(TRAJECTORY.read_text())["workloads"]}

    def replay(name, n, d, k, component, repeats, spans=False):
        row = dict(recorded[name])
        row["optimized_seconds"] *= slowdown
        return row

    monkeypatch.setattr(bench, "run_workload", replay)
    code = bench.main(["--check-only", "--repeats", "1", "--workloads", SMOKE_ROW])
    return code, capsys.readouterr()


def test_bench_check_only_passes_and_preserves_json(monkeypatch, capsys):
    before = TRAJECTORY.read_text()
    code, output = _replay_check_only(monkeypatch, capsys, slowdown=1.0)
    assert code == 0, output.out + output.err
    assert "check-only" in output.out
    assert TRAJECTORY.read_text() == before


def test_bench_check_only_fails_a_slower_replay_and_preserves_json(monkeypatch, capsys):
    before = TRAJECTORY.read_text()
    code, output = _replay_check_only(monkeypatch, capsys, slowdown=1.25)
    assert code == 1
    assert "REGRESSION" in output.err
    assert TRAJECTORY.read_text() == before


@pytest.mark.slow
def test_bench_rejects_unknown_workload():
    # No bytecode from the child: cached .pyc files under src/ would make a
    # later cold start of this checkout faster than a clean one.
    before = set((REPO_ROOT / "src").rglob("*.pyc"))
    result = subprocess.run(
        [sys.executable, str(BENCH), "--check-only", "--workloads", "nope"],
        cwd=REPO_ROOT,
        env={
            "PYTHONPATH": str(REPO_ROOT / "src"),
            "PATH": "/usr/bin:/bin",
            "PYTHONDONTWRITEBYTECODE": "1",
        },
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode != 0
    assert "unknown workloads" in result.stderr
    assert set((REPO_ROOT / "src").rglob("*.pyc")) <= before


def test_trajectory_tracks_new_hot_paths():
    """The recorded trajectory must carry the merge-reduce rows with the
    speedup the optimization claims."""
    payload = json.loads(TRAJECTORY.read_text())
    by_component = {}
    for workload in payload["workloads"]:
        by_component.setdefault(workload["component"], []).append(workload)
    assert "merge_reduce" in by_component
    assert any(w["speedup"] >= 2.0 for w in by_component["merge_reduce"])
    # The parallel engine rows track process-backend scaling at 1/2/4
    # workers.  Only presence is pinned, not a speedup: the achievable
    # ratio is a property of the recording machine's core count (a
    # single-core CI box records ~1x), and the regression guard compares
    # future runs against whatever this machine honestly measured.
    assert "parallel_shard" in by_component
    assert sorted(w["k"] for w in by_component["parallel_shard"]) == [1, 2, 4]
    assert "merge_reduce_cached_bound" in by_component


def test_trajectory_rows_stamp_cores_and_informational_flags():
    """Every row records the cores it was measured on; multi-worker rows
    recorded with fewer cores than workers must be marked informational
    (excluded from the regression guard) instead of hiding behind a widened
    tolerance."""
    payload = json.loads(TRAJECTORY.read_text())
    for workload in payload["workloads"]:
        assert workload["cores"] >= 1
        if workload["component"] == "parallel_shard":
            if workload["k"] > workload["cores"]:
                assert workload.get("informational") is True
            else:
                assert not workload.get("informational")


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_hotpaths", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_informational_rows_bypass_regression_guard():
    """A catastrophic ratio on an informational row must not trip the guard."""
    bench = _load_bench()
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


#: A tiny compiled-tier row: plain k-means++ seeding, fast enough for tier-1.
TINY_KMEANSPP_ROW = ("kmeanspp_native_tiny", 2000, 4, 8, "kmeanspp_native")

#: A recorded 10x ratio for :data:`TINY_KMEANSPP_ROW`.
RECORDED_KMEANSPP = {
    "workloads": [
        {"name": "kmeanspp_native_tiny", "component": "kmeanspp_native",
         "seed_seconds": 1.0, "optimized_seconds": 0.1},
    ]
}


@pytest.mark.skipif(
    any(kernel_provider(k) == "fallback" for k in ("kmeanspp_round", "fkpp_weighted_draw")),
    reason="the k-means++ kernels are not served on this host",
)
@pytest.mark.parametrize("kernel", ["kmeanspp_round", "fkpp_weighted_draw"])
def test_demoted_kernel_fails_its_row_with_the_reason(fail_verifier, kernel):
    """A kernel demoted while the rest of the tier is native fails the row
    with the demotion reason, not with a misleading ratio — also when it is
    not the kernel whose provider the row records (``kmeans_plus_plus``
    draws through the round kernel, but a row carries every demotion)."""
    bench = _load_bench()
    reason = fail_verifier(kernel)
    row = bench.run_workload(*TINY_KMEANSPP_ROW, repeats=1)
    assert row["kernel_tier"] == "native"
    assert row["kernel_provider"] == ("fallback" if kernel == "kmeanspp_round" else "cc")
    assert row["kernel_demotions"] == {kernel: reason}
    assert not row.get("informational")
    assert bench.check_regression(RECORDED_KMEANSPP, [row]) == [
        f"kmeanspp_native_tiny: kernel {kernel} demoted to numpy: {reason}"
    ]


def test_disabled_tier_rows_stay_informational():
    """With the tier switched off the row times numpy against itself, so it
    is informational and the guard skips it."""
    bench = _load_bench()
    with use_native(False):
        row = bench.run_workload(*TINY_KMEANSPP_ROW, repeats=1)
    assert row["kernel_provider"] == "fallback"
    assert "kernel_demotions" not in row
    assert row["informational"] is True
    assert bench.check_regression(RECORDED_KMEANSPP, [row]) == []
