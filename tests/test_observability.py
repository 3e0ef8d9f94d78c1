"""Tests for the unified tracing & metrics subsystem.

Four contracts are pinned here:

* the **Chrome trace-event export schema** — every event carries the
  required keys, timestamps are monotone, and B/E duration events nest
  and match per (pid, tid) track (the property Perfetto needs to build a
  flame graph rather than a soup of slices);
* the **no-op default**: with tracing disabled nothing records, and an
  instrumentation point costs a bounded sliver of time — the guarantee
  that lets spans live inside hot loops;
* **cross-process aggregation**: worker-side spans and counters ride the
  piggyback protocol back to the host and merge with worker identity
  preserved, while the task results consumers see stay byte-identical —
  tracing observes, never perturbs;
* the **typed diagnostics dataclass** keeps the mapping-style access the
  old ad-hoc dicts offered.
"""

import json
import time

import numpy as np
import pytest

from repro import observability as obs
from repro.core import FastCoreset
from repro.observability import (
    ExecutionDiagnostics,
    NullRecorder,
    TraceRecorder,
    chrome_trace_events,
    trace_payload,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.parallel import (
    ProcessAsyncExecutor,
    SerialAsyncExecutor,
    ShardedCoresetBuilder,
    ThreadAsyncExecutor,
)
from repro.streaming import DataStream, StreamingCoresetPipeline


@pytest.fixture()
def blobs():
    rng = np.random.default_rng(11)
    return rng.normal(size=(600, 4)) + rng.integers(0, 5, size=(600, 1)) * 8.0


# ---------------------------------------------------------------- recorder
class TestRecorder:
    def test_default_recorder_is_noop(self):
        recorder = obs.get_recorder()
        assert isinstance(recorder, NullRecorder)
        assert not obs.tracing_active()
        # The disabled span is one shared object; nothing records.
        with obs.span("anything", detail=1) as span:
            span.annotate(more=2)
        obs.counter_add("nothing", 5.0)
        obs.gauge_set("nothing", 5.0)
        assert isinstance(obs.get_recorder(), NullRecorder)

    def test_tracing_context_installs_and_restores(self):
        assert not obs.tracing_active()
        with obs.tracing() as recorder:
            assert obs.tracing_active()
            assert obs.get_recorder() is recorder
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        assert not obs.tracing_active()
        names = [record.name for record in recorder.spans]
        # Spans close inner-first.
        assert names == ["inner", "outer"]
        depths = {record.name: record.depth for record in recorder.spans}
        assert depths == {"outer": 0, "inner": 1}

    def test_counters_accumulate_and_gauges_high_water(self):
        recorder = TraceRecorder()
        recorder.counter_add("c", 2.0)
        recorder.counter_add("c", 3.0)
        recorder.gauge_set("g", 5.0)
        recorder.gauge_set("g", 1.0)
        assert recorder.counters() == {"c": 5.0}
        assert recorder.gauges() == {"g": 1.0}
        assert recorder.gauge_high_water() == {"g": 5.0}

    def test_ring_buffer_bounds_and_counts_drops(self):
        recorder = TraceRecorder(ring_limit=4)
        for index in range(10):
            with recorder.span("s", index=index):
                pass
        assert len(recorder.spans) == 4
        assert recorder.dropped_spans == 6
        # The newest spans survive.
        assert [record.args["index"] for record in recorder.spans] == [6, 7, 8, 9]

    def test_metrics_rollup(self):
        recorder = TraceRecorder()
        for _ in range(3):
            with recorder.span("work"):
                pass
        metrics = recorder.metrics()
        assert metrics["spans"]["work"]["count"] == 3.0
        assert metrics["spans"]["work"]["wall_seconds"] >= 0.0
        assert metrics["dropped_spans"] == 0

    def test_disabled_overhead_is_bounded(self):
        # A hot-loop instrumentation point with tracing off must cost a
        # bounded sliver: generous 10µs/op bound (observed ~0.5µs) so the
        # test never flakes on slow CI, while still catching an accidental
        # always-on recorder (~10-100x slower).
        assert not obs.tracing_active()
        iterations = 20_000
        start = time.perf_counter()
        for _ in range(iterations):
            with obs.span("noop"):
                pass
        per_op = (time.perf_counter() - start) / iterations
        assert per_op < 10e-6

    def test_worker_capture_summary_and_absorb(self):
        with obs.worker_capture() as capture:
            with obs.span("task", index=3):
                obs.counter_add("worker.count", 2.0)
                obs.gauge_set("worker.gauge", 7.0)
        summary = capture.summary
        assert summary is not None and summary["pid"] > 0
        # The capture restored the previous (no-op) recorder.
        assert not obs.tracing_active()

        host = TraceRecorder()
        host.counter_add("worker.count", 1.0)
        host.gauge_set("worker.gauge", 3.0)
        host.absorb(summary)
        assert host.counters()["worker.count"] == 3.0  # summed
        assert host.gauges()["worker.gauge"] == 7.0  # max
        absorbed = [record for record in host.spans if record.name == "task"]
        assert len(absorbed) == 1
        assert absorbed[0].pid == summary["pid"]
        assert absorbed[0].args == {"index": 3}


# ------------------------------------------------------------------ export
class TestChromeTraceExport:
    def _recorder_with_nested_spans(self) -> TraceRecorder:
        recorder = TraceRecorder()
        with recorder.span("root", stage="demo"):
            with recorder.span("child"):
                pass
            with recorder.span("child"):
                with recorder.span("grandchild"):
                    pass
        return recorder

    def test_events_carry_required_keys(self):
        recorder = self._recorder_with_nested_spans()
        events = chrome_trace_events(list(recorder.spans))
        assert events, "no events exported"
        for event in events:
            for key in ("name", "cat", "ph", "ts", "pid", "tid"):
                assert key in event
            assert event["ph"] in ("B", "E")
            assert event["ts"] >= 0.0

    def test_timestamps_monotone_and_pairs_match(self):
        recorder = self._recorder_with_nested_spans()
        payload = trace_payload(recorder)
        count = validate_chrome_trace(payload)
        assert count == len(payload["traceEvents"]) > 0
        timestamps = [event["ts"] for event in payload["traceEvents"]]
        assert timestamps == sorted(timestamps)
        begins = sum(1 for e in payload["traceEvents"] if e["ph"] == "B")
        ends = sum(1 for e in payload["traceEvents"] if e["ph"] == "E")
        assert begins == ends == 4

    def test_nesting_reconstructed_even_with_timestamp_ties(self):
        # Two zero-duration siblings plus a zero-duration child: ordering
        # by timestamp alone cannot recover the nesting — the exporter
        # must use the recorded depths.
        recorder = TraceRecorder()
        t = 100.0
        for name, depth in (("a", 1), ("b", 1), ("parent", 0)):
            recorder._append(
                obs.SpanRecord(
                    name=name,
                    category="repro",
                    start=t,
                    duration=0.0,
                    cpu_duration=0.0,
                    pid=1,
                    tid=1,
                    depth=depth,
                )
            )
        events = chrome_trace_events(list(recorder.spans))
        walk = [(event["ph"], event["name"]) for event in events]
        assert walk == [
            ("B", "parent"),
            ("B", "a"),
            ("E", "a"),
            ("B", "b"),
            ("E", "b"),
            ("E", "parent"),
        ]
        validate_chrome_trace({"traceEvents": events})

    def test_validator_rejects_mismatched_pairs(self):
        events = [
            {"name": "a", "cat": "c", "ph": "B", "ts": 0.0, "pid": 1, "tid": 1},
            {"name": "b", "cat": "c", "ph": "E", "ts": 1.0, "pid": 1, "tid": 1},
        ]
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": events})

    def test_validator_rejects_unbalanced_stack(self):
        events = [
            {"name": "a", "cat": "c", "ph": "B", "ts": 0.0, "pid": 1, "tid": 1},
        ]
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": events})

    def test_write_chrome_trace_round_trips(self, tmp_path):
        recorder = self._recorder_with_nested_spans()
        recorder.counter_add("c", 1.0)
        path = tmp_path / "trace.json"
        write_chrome_trace(path, recorder, metadata={"command": "test"})
        payload = json.loads(path.read_text())
        validate_chrome_trace(payload)
        assert payload["otherData"]["command"] == "test"
        assert payload["otherData"]["metrics"]["counters"] == {"c": 1.0}

    def test_multi_thread_tracks_merge_monotonically(self):
        recorder = TraceRecorder()
        # Fake two threads' records with interleaved start times.
        for tid, offset in ((1, 0.0), (2, 0.05)):
            recorder._append(
                obs.SpanRecord(
                    name=f"t{tid}",
                    category="repro",
                    start=10.0 + offset,
                    duration=0.2,
                    cpu_duration=0.1,
                    pid=7,
                    tid=tid,
                    depth=0,
                )
            )
        payload = trace_payload(recorder)
        validate_chrome_trace(payload)
        timestamps = [event["ts"] for event in payload["traceEvents"]]
        assert timestamps == sorted(timestamps)


# ----------------------------------------------------------- diagnostics
class TestExecutionDiagnostics:
    def test_attribute_and_mapping_access_agree(self):
        diagnostics = ExecutionDiagnostics(reduces_offloaded=1.0, pending_high_water=3.0)
        assert diagnostics.reduces_offloaded == 1.0
        assert diagnostics["reduces_offloaded"] == 1.0
        assert diagnostics.get("pending_high_water") == 3.0
        assert diagnostics.get("missing", -1.0) == -1.0
        assert "reduces_offloaded" in diagnostics
        assert set(diagnostics.keys()) >= {"reductions", "host_reduces", "blocks_seen"}
        assert dict(diagnostics.items()) == diagnostics.as_dict()

    def test_extra_keys_ride_along(self):
        diagnostics = ExecutionDiagnostics.from_mapping(
            {"host_reduces": 2.0, "custom_metric": 9.0}
        )
        assert diagnostics.host_reduces == 2.0
        assert diagnostics["custom_metric"] == 9.0
        assert "custom_metric" in diagnostics.as_dict()


# ------------------------------------------- tracing never changes bytes
class TestTracingInvariance:
    def _sharded_build(self, blobs, executor_factory):
        builder = ShardedCoresetBuilder(
            FastCoreset(k=4, seed=0),
            n_shards=4,
            coreset_size_per_shard=50,
            final_coreset_size=80,
            seed=13,
        )
        executor = executor_factory()
        try:
            return builder.build(blobs, executor=executor)
        finally:
            executor.close()

    @pytest.mark.parametrize(
        "factory",
        [
            pytest.param(lambda: SerialAsyncExecutor(), id="serial"),
            pytest.param(lambda: ThreadAsyncExecutor(workers=3), id="thread"),
            pytest.param(
                lambda: ProcessAsyncExecutor(workers=2),
                id="process",
                marks=pytest.mark.parallel,
            ),
        ],
    )
    def test_sharded_build_bit_identical_with_tracing(self, blobs, factory):
        plain = self._sharded_build(blobs, factory)
        with obs.tracing() as recorder:
            traced = self._sharded_build(blobs, factory)
        assert traced.coreset.points.tobytes() == plain.coreset.points.tobytes()
        assert traced.coreset.weights.tobytes() == plain.coreset.weights.tobytes()
        # Diagnostics are documented as mode-dependent (wall-clock and
        # scheduling), so only the deterministic routing keys are compared.
        assert traced.diagnostics["reduces_offloaded"] == plain.diagnostics["reduces_offloaded"]
        assert traced.diagnostics["host_reduces"] == plain.diagnostics["host_reduces"]
        assert traced.metadata == plain.metadata
        # The traced run recorded the build and the per-shard compressions.
        names = {record.name for record in recorder.spans}
        assert "sharded.build" in names
        assert "compress.shard" in names
        validate_chrome_trace(trace_payload(recorder))

    @pytest.mark.parallel
    def test_worker_spans_carry_worker_identity(self, blobs):
        with obs.tracing() as recorder:
            self._sharded_build(blobs, lambda: ProcessAsyncExecutor(workers=2))
        host_pid = recorder.pid
        shard_spans = [r for r in recorder.spans if r.name == "compress.shard"]
        assert len(shard_spans) == 4
        assert {record.pid for record in shard_spans}.isdisjoint({host_pid})
        # Host-side orchestration spans stay on the host track.
        build_spans = [r for r in recorder.spans if r.name == "sharded.build"]
        assert build_spans and all(r.pid == host_pid for r in build_spans)

    def test_streaming_pipeline_bit_identical_with_tracing(self, blobs):
        def _run():
            executor = SerialAsyncExecutor()
            try:
                pipeline = StreamingCoresetPipeline(
                    sampler=FastCoreset(k=4, seed=0),
                    coreset_size=60,
                    seed=7,
                    executor=executor,
                )
                stream = DataStream(points=blobs, block_size=150)
                coreset, statistics = pipeline.run_with_statistics(stream)
            finally:
                executor.close()
            return coreset, statistics, pipeline.last_diagnostics

        plain, plain_stats, plain_diag = _run()
        with obs.tracing() as recorder:
            traced, traced_stats, traced_diag = _run()
        assert traced.points.tobytes() == plain.points.tobytes()
        assert traced.weights.tobytes() == plain.weights.tobytes()
        assert traced_stats == plain_stats
        for key in ("reductions", "reduces_offloaded", "host_reduces", "blocks_seen"):
            assert traced_diag[key] == plain_diag[key]
        names = {record.name for record in recorder.spans}
        assert "stream.finalize" in names
        assert "compress.leaf" in names


# --------------------------------------------------------------------- CLI
class TestCliIntegration:
    @pytest.fixture()
    def dataset(self, tmp_path, blobs):
        path = tmp_path / "data.npy"
        np.save(path, blobs)
        return path

    def test_compress_trace_writes_valid_json(self, dataset, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "out.json"
        exit_code = main(
            [
                "compress",
                str(dataset),
                "--k",
                "4",
                "--m",
                "80",
                "--shards",
                "2",
                "--output",
                str(tmp_path / "coreset.npz"),
                "--trace",
                str(trace_path),
                "--metrics",
            ]
        )
        assert exit_code == 0
        payload = json.loads(trace_path.read_text())
        assert validate_chrome_trace(payload) > 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["trace"] == str(trace_path)
        assert "compress.shard" in summary["metrics"]["spans"]
        # Tracing is torn down after the command.
        assert not obs.tracing_active()

    def test_compress_without_trace_leaves_tracing_off(self, dataset, tmp_path, capsys):
        from repro.cli import main

        exit_code = main(
            [
                "compress",
                str(dataset),
                "--k",
                "4",
                "--m",
                "80",
                "--output",
                str(tmp_path / "coreset.npz"),
            ]
        )
        assert exit_code == 0
        summary = json.loads(capsys.readouterr().out)
        assert "trace" not in summary
        assert "metrics" not in summary
        assert not obs.tracing_active()

    def test_status_subcommand(self, capsys):
        from repro.cli import main

        assert main(["status"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["native"]["tier"] in ("native", "fallback")
        assert payload["pool"]["cpu_count"] >= 1
        assert "serial" in payload["pool"]["backends"]
        assert payload["tracing_active"] is False
