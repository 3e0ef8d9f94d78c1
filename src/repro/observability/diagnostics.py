"""Unified typed diagnostics for the streaming and sharded build paths.

Before this module, execution diagnostics rode two ad-hoc dict channels —
``StreamingCoresetPipeline.last_diagnostics`` and
``ShardedBuildResult.diagnostics`` — with overlapping but undocumented key
sets.  :class:`ExecutionDiagnostics` is the single typed carrier for both.
It is deliberately **mode-dependent** data: wall-clock and scheduling
counters that legitimately differ across {serial, thread, process}
backends, worker counts and overlap modes.  Mode-invariant statistics (coreset bytes, reduction
counts compared across backends) stay on their own channels so the
equivalence suites keep comparing byte-exact values — see
``parallel/README.md``.

Fields:

``reductions``
    Total merge-reduce fold count (streaming pipeline only).
``spread_refreshes`` / ``cost_bound_refreshes``
    How often the shared spread / Algorithm-2 crude-cost caches were
    recomputed from the refresh signal (streaming pipeline only).
``reduces_offloaded``
    Reduce compressions shipped to the async pool.
``host_reduces`` / ``host_reduce_seconds``
    Reduces the host ran itself (the append-only tree's final
    re-compression; every fold and query of a windowed tree), and the
    wall-clock they took.
``pending_high_water``
    Most leaf compressions a stream tree held in flight at once
    (streaming pipeline only).
``blocks_seen``
    Stream blocks ingested (streaming pipeline only).
``blocks_expired``
    Blocks retired from a windowed stream's live window (zero for
    non-windowed runs).
``drift_events``
    Drift-detector firings that invalidated the shared hint caches
    (windowed streaming only).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ExecutionDiagnostics"]


@dataclass
class ExecutionDiagnostics:
    """Mode-dependent execution diagnostics, read as attributes."""

    reductions: float = 0.0
    spread_refreshes: float = 0.0
    cost_bound_refreshes: float = 0.0
    reduces_offloaded: float = 0.0
    host_reduces: float = 0.0
    host_reduce_seconds: float = 0.0
    pending_high_water: float = 0.0
    blocks_seen: float = 0.0
    blocks_expired: float = 0.0
    drift_events: float = 0.0
