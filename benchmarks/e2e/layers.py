"""Per-layer attribution for the traced phase.

The program already records spans and counters at some layer boundaries
(``repro.observability``).  The benchmark adds spans of its own around the
calls into the layers that have none, by replacing each callee on the module
or class attribute its caller looks it up on, for the duration of the traced
phase only.  The CLI creates its process pool inside every operation, after
the replacements are in place, so forked workers inherit them, and worker
spans come back to the host through the executor's trace piggyback.

A layer's time is the *self* time of its spans (duration minus the direct
children's), computed per ``(pid, tid)`` track, so nested layers are never
counted twice.  Stage metrics (``streaming.leaf_compress_s`` and the like)
are whole span durations instead.  Values are means per traced operation.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence, Tuple

from repro import observability as obs

#: (module, attribute path, span name) of every benchmark-side wrapper.  The
#: module is fetched with ``importlib``: ``repro.core`` re-exports a
#: *function* named ``fast_coreset``, so attribute access on the package
#: would find the function, not the module.
WRAPPERS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.cli", "_load_points", "cli.load"),
    ("repro.core.base", "CoresetConstruction.sample", "core.sample"),
    ("repro.core.fast_coreset", "reduce_spread", "core.reduce_spread"),
    ("repro.core.fast_coreset", "sensitivity_scores", "core.sensitivity_scores"),
    ("repro.core.fast_coreset", "sample_by_scores", "core.sample_by_scores"),
    ("repro.core.fast_coreset", "FastCoreset._cluster_representatives", "core.representatives"),
    ("repro.core.sensitivity", "kmeans_plus_plus", "clustering.kmeanspp"),
    ("repro.core.sensitivity", "sensitivity_scores", "core.sensitivity_scores"),
    ("repro.core.sensitivity", "sample_by_scores", "core.sample_by_scores"),
    ("repro.core.spread_reduction", "crude_cost_upper_bound", "core.crude_bound"),
    ("repro.streaming.merge_reduce", "crude_cost_upper_bound", "core.crude_bound"),
    ("repro.streaming.window", "crude_cost_upper_bound", "core.crude_bound"),
    ("repro.streaming.merge_reduce", "MergeReduceTree.add_blocks", "stream.add_blocks"),
    ("repro.streaming.merge_reduce", "MergeReduceTree.flush", "stream.flush"),
    ("repro.streaming.window", "WindowedMergeReduceTree.add_block", "stream.add_block"),
    ("repro.streaming.window", "WindowedMergeReduceTree.query", "stream.query"),
    ("repro.parallel.executor", "ProcessAsyncExecutor.prepare", "parallel.pool_prepare"),
    ("repro.parallel.executor", "ProcessAsyncExecutor.close", "parallel.pool_close"),
)

#: Layer metric -> spans whose self time it sums.
SELF_TIME = {
    "cli.load_s": ("cli.load",),
    "geometry.quadtree_fit_s": ("fastkpp.tree_fits", "quadtree.fit", "quadtree.level"),
    "geometry.spread_estimate_s": ("quadtree.spread_estimate",),
    "clustering.fastkpp_seeding_s": ("fastkpp.seeding", "fastkpp.round"),
    "clustering.kmeanspp_s": ("clustering.kmeanspp",),
    "core.reduce_spread_s": ("core.reduce_spread",),
    "core.crude_bound_s": ("core.crude_bound",),
    "core.sensitivity_scores_s": ("core.sensitivity_scores",),
    "core.sample_by_scores_s": ("core.sample_by_scores",),
    "core.representatives_s": ("core.representatives",),
    "core.sample_other_s": ("core.sample",),
    "streaming.hint_refresh_s": ("stream.hint_refresh",),
    "parallel.map_wait_s": ("sharded.map",),
}

#: Stage metric -> spans whose whole duration it sums.
WALL_TIME = {
    "streaming.leaf_compress_s": ("compress.leaf", "stream.leaf_compress"),
    "streaming.reduce_compress_s": ("compress.reduce", "stream.host_reduce"),
    "streaming.pending_wait_s": ("stream.pending_wait",),
    "streaming.prefetch_wait_s": ("stream.prefetch_wait",),
    "parallel.publish_s": ("executor.publish",),
    "parallel.final_reduce_s": ("sharded.final_reduce",),
    "parallel.pool_prepare_s": ("parallel.pool_prepare",),
    "parallel.pool_close_s": ("parallel.pool_close",),
}

#: Count metric -> program counters it sums.
COUNTERS = {
    "geometry.quadtree_fits": ("quadtree.fits",),
    "geometry.levels_built": ("quadtree.levels_built",),
    "clustering.fastkpp_rounds": ("fastkpp.rounds",),
    "parallel.tasks_submitted": ("executor.tasks_submitted",),
    "native.dispatch_native": ("native.dispatch.cc", "native.dispatch.numba"),
    "native.dispatch_numpy": ("native.dispatch.fallback",),
}

#: Count metric -> span whose occurrences it counts.
SPAN_COUNTS = {
    "core.compressions": "core.sample",
    "core.crude_bound_calls": "core.crude_bound",
}

#: Counters of kernel calls served natively / by the numpy fallback.
_NATIVE_COUNTERS = ("fastkpp.level_score.native", "fastkpp.draw.native", "crude_bound.probes.native")
_NUMPY_COUNTERS = ("fastkpp.level_score.numpy", "fastkpp.draw.numpy", "crude_bound.probes.numpy")


def _spanned(function, name: str):
    @functools.wraps(function)
    def spanned(*args, **kwargs):
        with obs.span(name):
            return function(*args, **kwargs)

    return spanned


@contextmanager
def wrappers_installed() -> Iterator[None]:
    """Install every benchmark-side wrapper; restore the originals on exit."""
    saved = []
    try:
        for module_name, path, span_name in WRAPPERS:
            owner = importlib.import_module(module_name)
            *classes, attribute = path.split(".")
            for name in classes:
                owner = getattr(owner, name)
            original = vars(owner)[attribute]
            setattr(owner, attribute, _spanned(original, span_name))
            saved.append((owner, attribute, original))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


@contextmanager
def traced_op(recorders: List[obs.TraceRecorder]) -> Iterator[None]:
    """Trace one operation under a fresh recorder, rooted at a ``bench.op`` span."""
    with obs.tracing() as recorder:
        with obs.span("bench.op"):
            yield
    recorders.append(recorder)


def _self_times(spans: Sequence[obs.SpanRecord]) -> List[Tuple[obs.SpanRecord, float]]:
    """Each span with its duration minus its direct children's, per track."""
    tracks: Dict[Tuple[int, int], List[obs.SpanRecord]] = defaultdict(list)
    for record in spans:
        tracks[(record.pid, record.tid)].append(record)
    result = []
    for track in tracks.values():
        track.sort(key=lambda record: (record.start, -record.duration))
        children = [0.0] * len(track)
        open_spans: List[int] = []
        for index, record in enumerate(track):
            while open_spans and (
                track[open_spans[-1]].start + track[open_spans[-1]].duration <= record.start
            ):
                open_spans.pop()
            if open_spans:
                children[open_spans[-1]] += record.duration
            open_spans.append(index)
        result.extend((record, record.duration - child) for record, child in zip(track, children))
    return result


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def layer_metrics(
    ops: Sequence[obs.TraceRecorder],
    checks: Sequence[obs.TraceRecorder],
    host_pid: int,
    workers: int,
) -> Dict[str, float]:
    """Per-operation layer metrics of the traced operations.

    ``checks`` are the traced distortion checks, which only feed
    ``clustering.lloyd_s`` (Lloyd runs in the checks, never in an op).
    """
    self_time: Dict[str, float] = defaultdict(float)
    wall_time: Dict[str, float] = defaultdict(float)
    span_count: Dict[str, int] = defaultdict(int)
    counters: Dict[str, float] = defaultdict(float)
    high_water: Dict[str, float] = defaultdict(float)
    op_wall = covered = worker_busy = 0.0
    dropped = 0
    for recorder in ops:
        for record, own in _self_times(list(recorder.spans)):
            self_time[record.name] += own
            wall_time[record.name] += record.duration
            span_count[record.name] += 1
            if record.name == "bench.op":
                op_wall += record.duration
                covered += record.duration - own
            elif record.pid != host_pid and record.depth == 0:
                worker_busy += record.duration
        for name, value in recorder.counters().items():
            counters[name] += value
        for name, value in recorder.gauge_high_water().items():
            high_water[name] = max(high_water[name], value)
        dropped += recorder.dropped_spans

    count = max(1, len(ops))
    metrics = {
        metric: sum(self_time[name] for name in names) / count
        for metric, names in SELF_TIME.items()
    }
    metrics.update(
        (metric, sum(wall_time[name] for name in names) / count)
        for metric, names in WALL_TIME.items()
    )
    metrics.update(
        (metric, sum(counters[name] for name in names) / count)
        for metric, names in COUNTERS.items()
    )
    metrics.update((metric, span_count[name] / count) for metric, name in SPAN_COUNTS.items())

    lloyd = sum(
        own
        for recorder in checks
        for record, own in _self_times(list(recorder.spans))
        if record.name in ("lloyd.run", "lloyd.iteration")
    )
    metrics["clustering.lloyd_s"] = lloyd / max(1, len(checks))

    stream_compressions = span_count["core.sample"] if counters["stream.blocks"] else 0
    metrics["streaming.cost_bound_hit_ratio"] = (
        1.0 - _ratio(counters["stream.cost_bound_refreshes"], stream_compressions)
        if stream_compressions
        else 0.0
    )
    offloaded = counters["stream.reduces_offloaded"]
    metrics["streaming.reduces_offloaded_ratio"] = _ratio(
        offloaded, offloaded + counters["stream.host_reduces"]
    )
    metrics["streaming.pending_high_water"] = high_water["stream.pending_high_water"]
    metrics["parallel.segments_live_high_water"] = high_water["executor.segments_live"]
    metrics["parallel.worker_busy_ratio"] = _ratio(worker_busy, workers * op_wall)

    native = sum(counters[name] for name in _NATIVE_COUNTERS + COUNTERS["native.dispatch_native"])
    numpy = sum(counters[name] for name in _NUMPY_COUNTERS + COUNTERS["native.dispatch_numpy"])
    metrics["native.fallback_ratio"] = _ratio(numpy, native + numpy)

    metrics["trace.coverage"] = _ratio(covered, op_wall)
    metrics["trace.dropped_spans"] = float(dropped)
    return metrics
