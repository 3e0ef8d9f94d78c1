"""Command-line interface: compress a dataset file into a weighted coreset.

The CLI is the thinnest useful wrapper around the library for pipeline use:

.. code-block:: bash

    python -m repro.cli compress data.npy --k 100 --m 4000 --method fast_coreset \
        --output coreset.npz
    python -m repro.cli compress data.npy --k 100 --backend process --workers 4
    python -m repro.cli evaluate data.npy coreset.npz --k 100
    python -m repro.cli recommend data.npy --k 100

``compress`` writes an ``.npz`` archive with ``points``, ``weights`` and the
construction metadata; with ``--workers``/``--backend`` it shards the
dataset and compresses the shards concurrently through the parallel
execution engine (``--shards`` keys the result; the worker count and
backend only change wall-clock time).  Shard messages are collected in
shard order and their union is re-compressed as one more pool task.
``--prefetch-batches N`` switches to the overlapped *streaming* pipeline:
the input is consumed in blocks — memory-mapped for float64 ``.npy`` files,
never materialised — while a reader thread prefetches the next batch from
disk as the pool compresses the current one (result keyed by the seed and
the block structure).  ``evaluate`` reports the coreset distortion of an
existing compression against its source dataset; ``recommend`` runs the
Section 5.5 advisor and prints which sampler is appropriate.

``compress --trace out.json`` records hierarchical spans across the whole
pipeline — including pool-worker-side shard compressions and offloaded
reduces, merged onto the host timeline — and writes a Chrome trace-event
JSON loadable in Perfetto; ``--metrics`` adds the flat counters/gauges
dict to the summary.  Tracing observes and never perturbs: the coreset
bytes are identical with and without it.  The summary's
``kernel_demotions`` maps every compiled kernel that failed verification on
this host (and so ran on its numpy path) to the reason; it is empty on a
healthy host.  ``status`` prints the execution environment (native kernel
tier with a reason for every fallback kernel, pool configuration, tracing
state).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
from typing import Callable, Optional, Sequence

import numpy as np

from repro import observability as _obs
from repro.core import (
    Coreset,
    FastCoreset,
    LightweightCoreset,
    SensitivitySampling,
    UniformSampling,
    WelterweightCoreset,
)
from repro.evaluation import coreset_distortion
from repro.evaluation.advisor import diagnose_dataset, recommend_sampler
from repro.native import kernel_demotions, native_status
from repro.parallel import BACKENDS, ShardedCoresetBuilder, resolve_async_executor
from repro.streaming import (
    DataStream,
    ExponentialDecay,
    SlidingCountWindow,
    StreamingCoresetPipeline,
)

#: Method names accepted by ``--method`` and their constructors.
METHODS = ("uniform", "lightweight", "welterweight", "sensitivity", "fast_coreset")

#: Block count of the ``--prefetch-batches`` streaming compression path.
STREAM_BLOCKS = 16


def _load_points(path: str) -> np.ndarray:
    """Load a dataset from ``.npy``, ``.npz`` (key ``points``) or delimited text."""
    if path.endswith(".npy"):
        return np.asarray(np.load(path), dtype=np.float64)
    if path.endswith(".npz"):
        archive = np.load(path)
        key = "points" if "points" in archive else archive.files[0]
        return np.asarray(archive[key], dtype=np.float64)
    return np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)


def _build_sampler(method: str, k: int, z: int, seed: Optional[int]):
    """Instantiate the requested construction."""
    if method == "uniform":
        return UniformSampling(z=z, seed=seed)
    if method == "lightweight":
        return LightweightCoreset(z=z, seed=seed)
    if method == "welterweight":
        return WelterweightCoreset(k, z=z, seed=seed)
    if method == "sensitivity":
        return SensitivitySampling(k, z=z, seed=seed)
    if method == "fast_coreset":
        return FastCoreset(k, z=z, seed=seed)
    raise ValueError(f"unknown method {method!r}; expected one of {', '.join(METHODS)}")


def _open_stream(path: str, block_size_for: Callable[[int], int]):
    """Open ``path`` as a block stream, memory-mapping when possible.

    Two-dimensional float64 ``.npy`` files stream straight off disk through
    :meth:`DataStream.from_npy` (the dataset is never materialised — the
    point of the prefetch path); every other input is loaded once and
    streamed from memory.
    """
    if path.endswith(".npy"):
        header = np.load(path, mmap_mode="r")
        if header.ndim == 2 and header.dtype == np.float64:
            n = int(header.shape[0])
            del header
            return DataStream.from_npy(path, block_size=block_size_for(n))
    points = _load_points(path)
    return DataStream(points=points, block_size=block_size_for(points.shape[0]))


def _window_policy(arguments: argparse.Namespace):
    """The window policy requested on the command line, or ``None``."""
    if getattr(arguments, "window", None) is not None:
        return SlidingCountWindow(arguments.window)
    if getattr(arguments, "decay", None) is not None:
        return ExponentialDecay(arguments.decay)
    return None


def _compress_streaming(arguments: argparse.Namespace, sampler, backend: str) -> tuple:
    """The streaming paths: ``--prefetch-batches`` and/or ``--window``/``--decay``."""
    blocks = arguments.blocks if arguments.blocks is not None else STREAM_BLOCKS
    stream = _open_stream(
        arguments.data,
        lambda n: max(1, int(np.ceil(n / blocks))),
    )
    n = stream.n_points
    m = arguments.m if arguments.m is not None else 40 * arguments.k
    m = min(m, n)
    policy = _window_policy(arguments)
    executor = None
    try:
        if arguments.prefetch_batches is not None:
            executor = resolve_async_executor(backend, workers=arguments.workers)
        pipeline = StreamingCoresetPipeline(
            sampler=sampler,
            coreset_size=m,
            seed=arguments.seed,
            executor=executor,
            prefetch_batches=arguments.prefetch_batches,
            window=policy,
            drift_threshold=arguments.drift_threshold,
        )
        coreset, statistics = pipeline.run_with_statistics(stream)
    finally:
        if executor is not None:
            executor.close()
    diagnostics = pipeline.last_diagnostics
    execution = {
        "backend": "serial" if executor is None else executor.name,
        "workers": 1 if executor is None else executor.workers,
        "mode": "streaming" if policy is None else f"windowed_streaming[{policy.name}]",
        "blocks": int(statistics["blocks"]),
        "prefetch_batches": arguments.prefetch_batches,
        "reductions": int(statistics["reductions"]),
        "spread_refreshes": int(statistics["spread_refreshes"]),
        "cost_bound_refreshes": int(statistics["cost_bound_refreshes"]),
        "reduces_offloaded": int(diagnostics.reduces_offloaded),
        "pending_high_water": int(diagnostics.pending_high_water),
    }
    if policy is not None:
        execution["window"] = arguments.window
        execution["decay_half_life"] = arguments.decay
        execution["blocks_expired"] = int(statistics["blocks_expired"])
        execution["drift_events"] = int(statistics["drift_events"])
    return n, coreset, execution


def _rejects_non_positive(arguments: argparse.Namespace, *flags: str) -> bool:
    """Print an error for the first set count flag below 1 and return True."""
    for flag in flags:
        value = getattr(arguments, flag[2:].replace("-", "_"))
        if value is not None and value < 1:
            print(f"error: {flag} must be at least 1", file=sys.stderr)
            return True
    return False


def _command_compress(arguments: argparse.Namespace) -> int:
    streaming = (
        arguments.prefetch_batches is not None
        or arguments.window is not None
        or arguments.decay is not None
    )
    if arguments.window is not None and arguments.decay is not None:
        print(
            "error: --window (sliding count window) and --decay (exponential "
            "half-life) are mutually exclusive window policies",
            file=sys.stderr,
        )
        return 2
    if arguments.window is not None and arguments.window < 1:
        print("error: --window must cover at least one block", file=sys.stderr)
        return 2
    if arguments.decay is not None and not arguments.decay > 0:
        print("error: --decay half-life must be positive", file=sys.stderr)
        return 2
    if (arguments.window is not None or arguments.decay is not None) and arguments.shards is not None:
        print(
            "error: --window/--decay (windowed streaming compression) and "
            "--shards (sharded build) are mutually exclusive — a sharded build "
            "has no block arrival order to expire",
            file=sys.stderr,
        )
        return 2
    if arguments.blocks is not None and not streaming:
        print(
            "error: --blocks only applies to the streaming paths "
            "(--prefetch-batches, --window, or --decay)",
            file=sys.stderr,
        )
        return 2
    if _rejects_non_positive(
        arguments, "--k", "--m", "--workers", "--shards", "--blocks", "--prefetch-batches"
    ):
        return 2
    if arguments.drift_threshold is not None and arguments.window is None and arguments.decay is None:
        print(
            "error: --drift-threshold requires a window policy (--window or --decay)",
            file=sys.stderr,
        )
        return 2
    if arguments.prefetch_batches is not None and arguments.shards is not None:
        # The streaming path is a different construction (merge-&-reduce
        # over blocks, keyed by the block structure), not a faster sharded
        # build — refuse the combination instead of silently switching.
        print(
            "error: --prefetch-batches (streaming merge-reduce compression) and "
            "--shards (sharded build) are mutually exclusive — they key the "
            "coreset differently",
            file=sys.stderr,
        )
        return 2
    sampler = _build_sampler(arguments.method, arguments.k, arguments.z, arguments.seed)
    shards = arguments.shards if arguments.shards is not None else arguments.workers
    tracing = arguments.trace is not None or arguments.metrics
    if tracing:
        _obs.start_tracing()
    try:
        summary = _run_compress(arguments, sampler, shards)
    finally:
        recorder = _obs.stop_tracing() if tracing else None
    if recorder is not None:
        if arguments.trace is not None:
            _obs.write_chrome_trace(
                arguments.trace,
                recorder,
                metadata={"command": "compress", "method": arguments.method},
            )
            summary["trace"] = arguments.trace
        if arguments.metrics:
            summary["metrics"] = recorder.metrics()
    print(json.dumps(summary, indent=2))
    return 0


def _run_compress(arguments: argparse.Namespace, sampler, shards: int) -> dict:
    """Run the compression and return the summary dict (writes the .npz)."""
    backend = arguments.backend
    if backend is None:
        backend = "process" if arguments.workers > 1 else "serial"
    start = time.perf_counter()
    if arguments.prefetch_batches is not None or _window_policy(arguments) is not None:
        n_points, coreset, execution = _compress_streaming(arguments, sampler, backend)
        execution["shards"] = 1
    else:
        points = _load_points(arguments.data)
        n_points = int(points.shape[0])
        m = arguments.m if arguments.m is not None else 40 * arguments.k
        m = min(m, points.shape[0])
        if shards > 1:
            # Sharded path: each shard is compressed to the target size, the
            # union re-compressed to it.  The coreset is keyed by --shards and
            # --seed only; --backend/--workers change wall-clock, not bytes.
            builder = ShardedCoresetBuilder(
                sampler,
                n_shards=shards,
                coreset_size_per_shard=m,
                final_coreset_size=m,
                seed=arguments.seed,
            )
            executor = resolve_async_executor(backend, workers=arguments.workers)
            try:
                build = builder.build(points, executor=executor)
            finally:
                executor.close()
            coreset = build.coreset
            execution = {
                "backend": build.backend,
                "workers": build.workers,
                "shards": len(build.shard_sizes),
                "communication_floats": build.communication,
                "reduces_offloaded": int(build.diagnostics.reduces_offloaded),
            }
        else:
            # One shard: nothing to parallelise, and the single-shot sampler
            # path keeps byte-compatibility with earlier releases.
            coreset = sampler.sample(points, m)
            execution = {"backend": "serial", "workers": 1, "shards": 1}
    elapsed = time.perf_counter() - start
    np.savez(
        arguments.output,
        points=coreset.points,
        weights=coreset.weights,
        method=np.array(coreset.method),
        k=np.array(arguments.k),
    )
    status = native_status()
    kernel_tier = {
        "kernel_tier": status["tier"],
        "kernel_providers": {
            name: info["provider"] for name, info in status["kernels"].items()
        },
        # Kernels that failed verification on this host and run on numpy.
        "kernel_demotions": kernel_demotions(),
    }
    summary = {
        "input_points": n_points,
        "coreset_points": coreset.size,
        "total_weight": coreset.total_weight,
        "method": coreset.method,
        "output": arguments.output,
        "seconds": round(elapsed, 4),
        **execution,
        **kernel_tier,
    }
    return summary


def _command_evaluate(arguments: argparse.Namespace) -> int:
    if _rejects_non_positive(arguments, "--k"):
        return 2
    points = _load_points(arguments.data)
    archive = np.load(arguments.coreset)
    coreset = Coreset(
        points=np.asarray(archive["points"], dtype=np.float64),
        weights=np.asarray(archive["weights"], dtype=np.float64),
        method=str(archive["method"]) if "method" in archive else "loaded",
    )
    distortion = coreset_distortion(points, coreset, arguments.k, z=arguments.z, seed=arguments.seed)
    print(json.dumps({"distortion": distortion, "coreset_points": coreset.size}, indent=2))
    return 0 if distortion < arguments.fail_threshold else 1


def _command_recommend(arguments: argparse.Namespace) -> int:
    if _rejects_non_positive(arguments, "--k", "--m"):
        return 2
    points = _load_points(arguments.data)
    diagnosis = diagnose_dataset(points, arguments.k, seed=arguments.seed)
    recommendation = recommend_sampler(points, arguments.k, coreset_size=arguments.m, seed=arguments.seed)
    print(
        json.dumps(
            {
                "recommendation": recommendation,
                "cluster_imbalance": diagnosis.cluster_imbalance,
                "top_cost_share": diagnosis.top_cost_share,
                "smallest_cluster_fraction": diagnosis.smallest_cluster_fraction,
            },
            indent=2,
        )
    )
    return 0


def _command_status(arguments: argparse.Namespace) -> int:
    """Environment snapshot: kernel tier, pool configuration, tracing state."""
    payload = {
        "native": native_status(),
        "pool": {
            "cpu_count": os.cpu_count(),
            "backends": list(BACKENDS),
            "start_methods": multiprocessing.get_all_start_methods(),
            "default_start_method": multiprocessing.get_start_method(allow_none=True),
        },
        "tracing_active": _obs.tracing_active(),
    }
    print(json.dumps(payload, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    compress = subparsers.add_parser("compress", help="compress a dataset into a weighted coreset")
    compress.add_argument("data", help="input dataset (.npy, .npz, or csv)")
    compress.add_argument("--k", type=int, required=True, help="number of clusters to support")
    compress.add_argument("--m", type=int, default=None, help="coreset size (default 40*k)")
    compress.add_argument("--method", choices=METHODS, default="fast_coreset")
    compress.add_argument("--z", type=int, choices=(1, 2), default=2, help="1=k-median, 2=k-means")
    compress.add_argument("--seed", type=int, default=0)
    compress.add_argument("--output", default="coreset.npz")
    compress.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker count for the parallel execution engine (default 1)",
    )
    compress.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help="execution backend for the sharded build (default: process when "
        "--workers > 1, else serial); 'process' uses a shared-memory pool",
    )
    compress.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard count for the sharded build (default: --workers); together "
        "with --seed this keys the coreset — backend and workers never do, and "
        "with a single shard the plain (non-sharded) sampler path runs",
    )
    compress.add_argument(
        "--prefetch-batches",
        type=int,
        default=None,
        metavar="N",
        help="overlapped streaming compression instead of the sharded build: "
        "consume the input in blocks (memory-mapped for float64 .npy files) "
        "while a reader thread prefetches up to N batches ahead of the "
        "compressing pool; mutually exclusive with --shards, and the result "
        "is keyed by --seed and the block structure (N changes wall-clock "
        "only)",
    )
    compress.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="N",
        help="windowed streaming compression: only the last N blocks of the "
        "stream are live, older blocks are retired before every fold; the "
        "coreset summarises the sliding window, not the whole stream; "
        "mutually exclusive with --decay and --shards",
    )
    compress.add_argument(
        "--decay",
        type=float,
        default=None,
        metavar="HALF_LIFE",
        help="decaying streaming compression: every block's weight is halved "
        "each HALF_LIFE block-stamps of age, so the coreset emphasises "
        "recent data without ever dropping blocks; mutually exclusive with "
        "--window and --shards",
    )
    compress.add_argument(
        "--blocks",
        type=int,
        default=None,
        metavar="B",
        help="block count for the streaming paths (default %d); only valid "
        "together with --prefetch-batches, --window, or --decay" % STREAM_BLOCKS,
    )
    compress.add_argument(
        "--drift-threshold",
        type=float,
        default=None,
        metavar="T",
        help="fire the drift detector (refreshing the spread/cost-bound hint "
        "caches) when the block mean moves more than T times the window "
        "bounding-box diagonal from its anchor (default 0.25); requires "
        "--window or --decay",
    )
    compress.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record spans across the whole compression (host and pool "
        "workers alike) and write a Chrome trace-event JSON loadable in "
        "Perfetto / chrome://tracing; tracing never changes the coreset "
        "bytes, only observes them",
    )
    compress.add_argument(
        "--metrics",
        action="store_true",
        help="include the flat metrics dict (counters, gauges, per-span "
        "rollups) in the JSON summary; enables tracing for the run even "
        "without --trace",
    )
    compress.set_defaults(handler=_command_compress)

    evaluate = subparsers.add_parser("evaluate", help="measure the distortion of an existing coreset")
    evaluate.add_argument("data", help="the original dataset")
    evaluate.add_argument("coreset", help="the .npz produced by the compress command")
    evaluate.add_argument("--k", type=int, required=True)
    evaluate.add_argument("--z", type=int, choices=(1, 2), default=2)
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument("--fail-threshold", type=float, default=5.0)
    evaluate.set_defaults(handler=_command_evaluate)

    recommend = subparsers.add_parser("recommend", help="run the Section 5.5 sampler advisor")
    recommend.add_argument("data", help="the dataset to diagnose")
    recommend.add_argument("--k", type=int, required=True)
    recommend.add_argument("--m", type=int, default=None)
    recommend.add_argument("--seed", type=int, default=0)
    recommend.set_defaults(handler=_command_recommend)

    status = subparsers.add_parser(
        "status",
        help="print the execution environment: native kernel tier, pool "
        "configuration, tracing state",
    )
    status.set_defaults(handler=_command_status)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro.cli``."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    return arguments.handler(arguments)


if __name__ == "__main__":
    sys.exit(main())
