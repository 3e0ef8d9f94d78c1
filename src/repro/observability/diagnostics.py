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

Documented keys:

``reductions``
    Total merge-reduce fold count (streaming pipeline only).
``spread_refreshes`` / ``cost_bound_refreshes``
    How often the shared spread / Algorithm-2 crude-cost caches were
    recomputed from the refresh signal (streaming pipeline only).
``reduces_offloaded``
    Reduce compressions shipped to the async pool instead of folded on
    the host.
``host_reduces`` / ``host_reduce_seconds``
    Folds the host performed itself, and the wall-clock they took.
``pending_high_water``
    Maximum number of in-flight pool tasks observed.
``blocks_seen``
    Stream blocks ingested (streaming pipeline only).
``blocks_expired``
    Blocks retired from a windowed stream's live window (zero for
    non-windowed runs).
``drift_events``
    Drift-detector firings that invalidated the shared hint caches
    (windowed streaming only).

The class supports read-only dict-style access (``diag["host_reduces"]``,
``.get``, ``in``, iteration) so existing equivalence suites and CLI code
keep working unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterator, Optional

__all__ = ["ExecutionDiagnostics"]


@dataclass
class ExecutionDiagnostics:
    """Mode-dependent execution diagnostics with dict-compatible access."""

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
    # Keys set by callers that predate a typed field land here so dict
    # access never silently narrows what a channel can carry.
    extra: Dict[str, float] = field(default_factory=dict)

    _FIELD_NAMES = (
        "reductions",
        "spread_refreshes",
        "cost_bound_refreshes",
        "reduces_offloaded",
        "host_reduces",
        "host_reduce_seconds",
        "pending_high_water",
        "blocks_seen",
        "blocks_expired",
        "drift_events",
    )

    @classmethod
    def from_mapping(cls, mapping: Optional[Dict[str, float]]) -> "ExecutionDiagnostics":
        diag = cls()
        if mapping:
            for key, value in mapping.items():
                if key in cls._FIELD_NAMES:
                    setattr(diag, key, float(value))
                else:
                    diag.extra[key] = float(value)
        return diag

    def as_dict(self) -> Dict[str, float]:
        out = {name: getattr(self, name) for name in self._FIELD_NAMES}
        out.update(self.extra)
        return out

    # -- read-only mapping protocol --------------------------------------

    def __getitem__(self, key: str) -> float:
        if key in self._FIELD_NAMES:
            return getattr(self, key)
        return self.extra[key]

    def get(self, key: str, default: Any = None) -> Any:
        try:
            return self[key]
        except KeyError:
            return default

    def __contains__(self, key: object) -> bool:
        return key in self._FIELD_NAMES or key in self.extra

    def __iter__(self) -> Iterator[str]:
        yield from self._FIELD_NAMES
        yield from self.extra

    def __len__(self) -> int:
        return len(self._FIELD_NAMES) + len(self.extra)

    def keys(self):
        return self.as_dict().keys()

    def values(self):
        return self.as_dict().values()

    def items(self):
        return self.as_dict().items()
