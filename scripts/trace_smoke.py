"""End-to-end smoke for the trace exporter (the `make trace-smoke` gate).

Runs a small `compress --shards 4 --trace` through the real CLI in a
subprocess, then checks that the trace file is valid Chrome trace-event
JSON (required keys, monotone timestamps, matched B/E pairs per track) and
that the expected pipeline stages actually appear.  Cheap enough to run as
a blocking CI step; the thread backend keeps it independent of the
runner's multiprocessing support (process-pool piggybacking is covered by
the `parallel`-marked tests).
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.observability import validate_chrome_trace

#: Span names the smoke insists on: one per instrumented layer (sharded
#: orchestration, the per-task compression, geometry, seeding).
REQUIRED_SPANS = {
    "sharded.build",
    "compress.shard",
    "compress.final",
    "quadtree.fit",
    "fastkpp.seeding",
}


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        rng = np.random.default_rng(5)
        np.save(directory / "data.npy", rng.normal(size=(3000, 5)))
        trace_path = directory / "trace.json"
        command = [
            sys.executable,
            "-m",
            "repro.cli",
            "compress",
            str(directory / "data.npy"),
            "--k",
            "8",
            "--m",
            "200",
            "--shards",
            "4",
            "--backend",
            "thread",
            "--workers",
            "2",
            "--output",
            str(directory / "coreset.npz"),
            "--trace",
            str(trace_path),
            "--metrics",
        ]
        completed = subprocess.run(command, capture_output=True, text=True)
        if completed.returncode != 0:
            print(completed.stdout, file=sys.stderr)
            print(completed.stderr, file=sys.stderr)
            print(f"trace-smoke FAILED: compress exited {completed.returncode}", file=sys.stderr)
            return 1

        payload = json.loads(trace_path.read_text())
        event_count = validate_chrome_trace(payload)
        names = {event["name"] for event in payload["traceEvents"]}
        missing = REQUIRED_SPANS - names
        if missing:
            print(f"trace-smoke FAILED: missing spans {sorted(missing)}", file=sys.stderr)
            return 1

        summary = json.loads(completed.stdout)
        if "metrics" not in summary or "counters" not in summary["metrics"]:
            print("trace-smoke FAILED: --metrics dict absent from the summary", file=sys.stderr)
            return 1

        print(
            f"trace-smoke OK: {event_count} events, "
            f"{len(names)} span names, "
            f"{len(summary['metrics']['counters'])} counters"
        )
        return 0


if __name__ == "__main__":
    sys.exit(main())
