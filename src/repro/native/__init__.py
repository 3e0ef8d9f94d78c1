"""Optional compiled kernel tier (see ``src/repro/native/README.md``).

Public surface:

* :func:`get_kernel` — a verified compiled kernel by name, or ``None`` when
  it is on the fallback (the caller keeps its numpy path).
* :func:`native_status` — introspection: mode, the ``cc`` provider,
  per-kernel routing (with a ``reason`` for every kernel on the fallback).
* :func:`kernel_demotions` — kernels that failed verification and fell back.
* :func:`use_native` / :func:`refresh` — tier control for tests and daemons.
* ``REPRO_NATIVE`` environment flag (:data:`~repro.native.registry.ENV_FLAG`):
  ``0`` (or ``off``/``false``/``no``) forces the pure-numpy fallback
  everywhere; any other value enables the compiled tier.

Five kernels ride the tier: the quadtree build, the Fast-kmeans++ level
sweep and D²-draw, the plain k-means++ round and the crude-bound occupancy
probe.  Every kernel is pinned bit-identical to
its numpy counterpart in both tier modes, so the streaming, sharded, and
async layers — and their equivalence suites — inherit the speedup with zero
semantic drift.
"""

from repro.native.kernels import (
    kernel_provider,
    reference_crude_bound_probe,
    reference_fkpp_draw_scan,
    reference_fkpp_level_score,
    reference_fkpp_weighted_draw,
    reference_kmeanspp_round,
    reference_quadtree_build,
    reference_quadtree_max_squared_norm,
)
from repro.native.registry import (
    ENV_FLAG,
    get_kernel,
    kernel_demotions,
    native_status,
    refresh,
    use_native,
)

__all__ = [
    "ENV_FLAG",
    "get_kernel",
    "kernel_demotions",
    "kernel_provider",
    "native_status",
    "reference_crude_bound_probe",
    "reference_fkpp_draw_scan",
    "reference_fkpp_level_score",
    "reference_fkpp_weighted_draw",
    "reference_kmeanspp_round",
    "reference_quadtree_build",
    "reference_quadtree_max_squared_norm",
    "refresh",
    "use_native",
]
