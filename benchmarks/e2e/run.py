"""End-to-end benchmark of the real entry points, one workload per run.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload static_fast --seed 1 --seconds 15 --trace 0

Set-up builds or loads the compiled kernel tier once (untimed), then sets up
the workload several times and reports the median as ``setup_s``: one
set-up is generating the seed's input into a work directory inside the
checkout plus a cold start of the program in a fresh interpreter (import,
kernel resolution).  The measurement itself runs in one more fresh
interpreter (``measure.py``).  With ``--trace 0`` the result carries every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` every per-layer
metric, from a traced phase after the timed one.  The last line of output is
the result JSON; the lines before it show the same metrics for a reader.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from workloads import WORKLOADS, smoke

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Trace coverage below this is flagged: a tenth of the op would be unattributed.
COVERAGE_FLOOR = 0.90

#: A measurement process that runs longer than this has hung.
MEASURE_TIMEOUT_S = 170

_COLD_START = "import repro.cli; repro.cli.native_status()"


def declared_metrics(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec["per_layer" if trace else "end_to_end"]}


def set_up(workload, seed: int, seconds: float, workdir: Path, env: dict) -> float:
    """One set-up: write the seed's input, then cold-start the program."""
    started = time.perf_counter()
    np.save(workdir / "data.npy", workload.make_points(seed, seconds))
    subprocess.run([sys.executable, "-c", _COLD_START], env=env, check=True, timeout=120)
    return time.perf_counter() - started


def report(values: dict, units: Dict[str, str]) -> dict:
    """Print the declared metrics for a reader; return them in result form."""
    metrics = {}
    for metric, unit in units.items():
        value = float(values[metric])
        if not math.isfinite(value):
            raise ValueError(f"{metric} is {value}")
        metrics[metric] = {"value": value, "unit": unit}
        print(f"  {metric:<40} {value:>14.6g} {unit}")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="test scale: a few thousand rows, a few ops"
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = smoke(WORKLOADS[args.workload]) if args.smoke else WORKLOADS[args.workload]
    units = declared_metrics(bool(args.trace))

    workdir = Path(tempfile.mkdtemp(prefix=".e2e_work-", dir=ROOT))
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    # Temporary files of the program and its pools stay inside the checkout.
    env = dict(os.environ, PYTHONPATH=pythonpath, TMPDIR=str(workdir))
    try:
        # The first run in a checkout compiles the kernel tier: keep it untimed.
        subprocess.run([sys.executable, "-c", _COLD_START], env=env, check=True, timeout=900)
        repeats = 1 if args.smoke else SETUP_REPEATS
        setup_s = statistics.median(
            set_up(workload, args.seed, args.seconds, workdir, env) for _ in range(repeats)
        )
        command = [
            sys.executable, str(HERE / "measure.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", str(workdir),
        ] + (["--smoke"] if args.smoke else [])
        measured = subprocess.run(
            command, env=env, stdout=subprocess.PIPE, text=True, timeout=MEASURE_TIMEOUT_S
        )
        if measured.returncode != 0:
            print(f"error: measurement exited {measured.returncode}", file=sys.stderr)
            return 1
        lines = measured.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        outcome = json.loads(lines[-1])
        values = dict(outcome["values"], setup_s=setup_s)
        mode = "traced phase, per-layer" if args.trace else "tracing off, end-to-end"
        print(
            f"{args.workload}: seed {args.seed}, {values['bench.ops']:.0f} timed ops, "
            f"{outcome['attempted']} attempted, {outcome['failed']} failed ({mode})"
        )
        metrics = report(values, units)
        if args.trace and values["trace.coverage"] < COVERAGE_FLOOR:
            print(f"  FLAG: trace.coverage {values['trace.coverage']:.3f} < {COVERAGE_FLOOR}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(
        json.dumps(
            {
                "correct": outcome["failed"] == 0,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
