"""Smoke test of the end-to-end benchmark: every workload at ``--smoke`` scale.

Runs ``run.py`` as a command, once with tracing off and once with the
traced phase, and checks the result contract: every metric
``BENCHMARK.json`` declares is printed with its unit, no operation failed,
no span was dropped, and a seed reproduces its inputs (hence its distortion).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: The pool workloads start process pools (deselected with ``-m "not parallel"``).
POOLED = {"stream_pool", "sharded_pool"}


def run_benchmark(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT):
    return subprocess.run(
        [
            sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--smoke",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def result_of(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "workload",
    [
        pytest.param(name, marks=pytest.mark.parallel) if name in POOLED else name
        for name in (entry["name"] for entry in SPEC["workloads"])
    ],
)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_workload_reports_every_declared_metric(workload, trace, section):
    result = result_of(run_benchmark(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    declared = {entry["name"]: entry["unit"] for entry in SPEC[section]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == declared
    if trace:
        assert result["metrics"]["trace.dropped_spans"]["value"] == 0
    else:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parallel
def test_same_seed_reproduces_distortion():
    first, second = (result_of(run_benchmark("sharded_pool", 0)) for _ in range(2))
    assert first["metrics"]["distortion_max"] == second["metrics"]["distortion_max"]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_benchmark("static_fast", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout == ""
