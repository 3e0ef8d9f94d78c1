"""One workload's measurement process: timed phase, output checks, traced phase.

``run.py`` starts this in a fresh interpreter once set-up is done, so the
peak RSS measured here belongs to the program and its pool workers alone
(set-up generates the inputs in the parent).  The last line of output is
one JSON object: ``attempted``, ``failed`` and ``values``, every metric this
process measured (``run.py`` picks the declared ones and adds ``setup_s``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Callable, ContextManager, Dict, List, Optional

import numpy as np

from repro import cli
from repro.evaluation import coreset_distortion

import layers
from workloads import (
    CHECKED_OPS,
    MAX_DISTORTION,
    WORKERS,
    WORKLOADS,
    CompressWorkload,
    WindowWorkload,
    coreset_problems,
    smoke,
)


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: List[float]) -> float:
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def peak_rss_mb() -> float:
    """High-water RSS of this process and of its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def calibrate() -> float:
    """Median time of a fixed numpy kernel: host drift, never used to normalise."""
    values = np.random.default_rng(0).random(1_000_000)
    times = []
    for _ in range(3):
        started = time.perf_counter()
        np.sort(values)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


class Tally:
    """Operations attempted, and the ones that failed a check or raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: set = set()

    def check(self, op: int, action: Callable[[], List[str]]) -> None:
        """Run ``action`` (which lists problems); a failure never aborts the run."""
        try:
            problems = action()
        except Exception:  # noqa: BLE001 - a benchmark boundary keeps running
            traceback.print_exc()
            problems = ["raised"]
        if problems:
            self.failed.add(op)
        for problem in problems:
            print(f"  check failed on op {op}: {problem}", file=sys.stderr)


def check_distortion(distortions: List[float], distortion: float) -> List[str]:
    distortions.append(distortion)
    if distortion <= MAX_DISTORTION:
        return []
    return [f"distortion {distortion:.3f} > {MAX_DISTORTION}"]


def op_seed(seed: int, op: int) -> int:
    return 1000 * seed + op


# -------------------------------------------------------------- closed loop
def _cli(argv: List[str], context: ContextManager):
    """Run the CLI in process; returns (wall seconds, exit code, stdout)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        started = time.perf_counter()
        with context:
            code = cli.main(argv)
        wall = time.perf_counter() - started
    return wall, code, buffer.getvalue()


def run_compress(workload: CompressWorkload, args) -> tuple:
    data = str(args.workdir / "data.npy")
    tally = Tally()
    summaries: Dict[int, dict] = {}
    distortions: List[float] = []

    def output(op: int) -> str:
        # Ops past the checked ones share one file.
        return str(args.workdir / f"coreset_{min(op, CHECKED_OPS)}.npz")

    def compress(op: int, context: ContextManager) -> List[str]:
        wall, code, stdout = _cli(workload.compress_argv(data, output(op), op_seed(args.seed, op)), context)
        if code != 0:
            return [f"compress exited {code}"]
        summary = summaries[op] = dict(json.loads(stdout), wall=wall)
        problems = []
        if summary["input_points"] != workload.n:
            problems.append(f"input_points {summary['input_points']} != {workload.n}")
        with np.load(output(op)) as archive:
            problems += coreset_problems(archive["points"], archive["weights"], workload.m, workload.n)
        return problems

    def evaluate(op: int, context: ContextManager) -> List[str]:
        argv = workload.evaluate_argv(data, output(op), op_seed(args.seed, op))
        _, _, stdout = _cli(argv, context)
        return check_distortion(distortions, float(json.loads(stdout)["distortion"]))

    started = time.perf_counter()
    timed = 0
    while (workload.max_ops is None or timed < workload.max_ops) and (
        timed < CHECKED_OPS or time.perf_counter() - started < args.seconds
    ):
        tally.attempted += 1
        tally.check(timed, lambda: compress(timed, contextlib.nullcontext()))
        timed += 1
    peak = peak_rss_mb()
    walls = [summaries[op]["wall"] for op in range(timed) if op in summaries]

    traced_ops: List = []
    traced_checks: List = []
    tracing = layers.wrappers_installed() if args.trace else contextlib.nullcontext()
    with tracing:
        for op in range(min(CHECKED_OPS, timed)):
            context = layers.traced_op(traced_checks) if args.trace else contextlib.nullcontext()
            tally.check(op, lambda: evaluate(op, context))
        if args.trace:
            for op in range(timed, timed + workload.traced_ops):
                tally.attempted += 1
                tally.check(op, lambda: compress(op, layers.traced_op(traced_ops)))

    values = {
        "latency_ms_p50": median(walls) * 1e3,
        "points_per_s": workload.n * len(walls) / sum(walls) if walls else 0.0,
        "distortion_max": max(distortions, default=float("inf")),
        "peak_rss_mb": peak,
        "bench.ops": float(len(walls)),
        "bench.latency_ms_p90": p90(walls) * 1e3,
        "bench.generator_lag_ms_max": 0.0,
        "streaming.add_block_ms_p50": 0.0,
        "streaming.query_ms_p50": 0.0,
        "streaming.blocks_expired": 0.0,
        "streaming.drift_events": 0.0,
    }
    if args.trace:
        traced = [summaries[op] for op in range(timed, timed + workload.traced_ops) if op in summaries]
        values.update(layers.layer_metrics(traced_ops, traced_checks, os.getpid(), WORKERS))
        values["cli.other_s"] = statistics.fmean(s["wall"] - s["seconds"] for s in traced)
        values["trace.overhead"] = median([s["wall"] for s in traced]) / median(walls) - 1.0
        tiers = sorted({summary["kernel_tier"] for summary in summaries.values()})
        print(f"kernel tier: {', '.join(tiers)}")
    return tally, values


# ---------------------------------------------------------------- open loop
def run_window(workload: WindowWorkload, args) -> tuple:
    points = np.load(args.workdir / "data.npy")
    blocks = points.reshape(-1, workload.block, points.shape[1])
    timed = workload.timed_blocks(args.seconds)
    tree = workload.build_tree(args.seed)
    tally = Tally()
    # Eight distortion checkpoints: the max over four spread 0.066 across
    # seeds, over eight 0.052.
    checkpoints = {timed * eighth // 8 for eighth in range(1, 8)} | {timed - 1}
    kept = {}

    def arrive(index: int, context: ContextManager, sample: dict) -> List[str]:
        with context:
            tree.add_block(blocks[index])
            sample["added"] = time.perf_counter()
            coreset = tree.query()
        sample["done"] = time.perf_counter()
        if index in checkpoints:
            kept[index] = coreset
        live = min(index + 1, workload.window) * workload.block
        return coreset_problems(coreset.points, coreset.weights, workload.m, live)

    def stream(first: int, count: int, context: Callable[[], ContextManager]) -> List[dict]:
        """Feed ``count`` blocks on the open-loop schedule: block ``i`` is due
        ``i / rate`` seconds after the first, however late the previous was."""
        samples = []
        origin = time.perf_counter()
        for offset in range(count):
            index = first + offset
            due = origin + offset / workload.rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sample = {"due": due, "began": time.perf_counter()}
            tally.attempted += 1
            tally.check(index, lambda: arrive(index, context(), sample))
            if "done" in sample:
                samples.append(sample)
        return samples

    samples = stream(0, timed, contextlib.nullcontext)
    peak = peak_rss_mb()
    expected_expired = max(0, timed - workload.window)
    blocks_expired, drift_events = tree.blocks_expired, tree.drift_events

    def window_checks() -> List[str]:
        problems = []
        if blocks_expired != expected_expired:
            problems.append(f"blocks_expired {blocks_expired} != {expected_expired}")
        if drift_events < 1:
            problems.append("the drift detector never fired")
        return problems

    tally.check(timed - 1, window_checks)

    distortions: List[float] = []
    for index, coreset in sorted(kept.items()):
        live = points[max(0, index + 1 - workload.window) * workload.block : (index + 1) * workload.block]
        tally.check(
            index,
            lambda: check_distortion(
                distortions,
                coreset_distortion(live, coreset, workload.k, seed=op_seed(args.seed, index)),
            ),
        )

    busy = [sample["done"] - sample["began"] for sample in samples]
    latency = [sample["done"] - sample["due"] for sample in samples]
    values = {
        "latency_ms_p50": median(latency) * 1e3,
        "points_per_s": workload.block * len(busy) / sum(busy) if busy else 0.0,
        "distortion_max": max(distortions, default=float("inf")),
        "peak_rss_mb": peak,
        "bench.ops": float(len(samples)),
        "bench.latency_ms_p90": p90(latency) * 1e3,
        "bench.generator_lag_ms_max": max(s["began"] - s["due"] for s in samples) * 1e3 if samples else 0.0,
        "streaming.add_block_ms_p50": median([s["added"] - s["began"] for s in samples]) * 1e3,
        "streaming.query_ms_p50": median([s["done"] - s["added"] for s in samples]) * 1e3,
        "streaming.blocks_expired": float(blocks_expired),
        "streaming.drift_events": float(drift_events),
        "cli.other_s": 0.0,
    }
    if args.trace:
        recorders: List = []
        with layers.wrappers_installed():
            traced = stream(timed, workload.traced_blocks, lambda: layers.traced_op(recorders))
        values.update(layers.layer_metrics(recorders, [], os.getpid(), WORKERS))
        values["trace.overhead"] = median([s["done"] - s["began"] for s in traced]) / median(busy) - 1.0
    return tally, values


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke(workload)

    calib_start = calibrate()
    if isinstance(workload, CompressWorkload):
        tally, values = run_compress(workload, args)
    else:
        tally, values = run_window(workload, args)
    values["host.calib_start_s"] = calib_start
    values["host.calib_end_s"] = calibrate()
    # The process pools start multiprocessing's resource tracker; stop it
    # and reap it here, so no process of the run outlives the run.
    resource_tracker._resource_tracker._stop()
    print(json.dumps({"attempted": tally.attempted, "failed": len(tally.failed), "values": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
