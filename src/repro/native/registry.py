"""Kernel dispatch registry for the optional compiled tier.

The registry is the single seam between the pure-numpy library code and the
compiled kernels: callers ask for a kernel *by name* through
:func:`get_kernel` and never import the provider module directly.  The one
provider, ``cc`` (:mod:`repro.native._cc_kernels`, a small C translation
unit compiled on first use with the system compiler), returns a ``{kernel
name: callable}`` mapping; every kernel registers a *verifier* that is run
once against the compiled implementation before it is ever trusted.

Resolution contract
-------------------
* ``REPRO_NATIVE=0`` (also ``off``/``false``/``no``) forces the fallback
  tier for every kernel — the escape hatch.  Any other value, or none,
  enables the compiled tier.
* Resolution happens lazily on the first :func:`get_kernel` call in each
  mode and is cached per process and per mode, so flipping the tier with
  :func:`use_native` re-runs no verifier; :func:`refresh` drops every
  cached mode (kernel registration, and tests that patch a verifier or the
  provider, call it).
* Every compiled kernel must pass its registered verifier (a cheap
  bit-identity check against the numpy reference on small inputs) during
  resolution.  A kernel falls back when the provider fails to import or
  compile, or when the kernel fails its verifier; the reason is recorded —
  visible via :func:`native_status`, which gives each fallback kernel its
  ``reason``, and for failed verifications via :func:`kernel_demotions` and
  the ``compress`` summary.  A fallback kernel is ``None``: the caller keeps
  its own numpy path.  A runtime-compiled kernel therefore can never
  silently corrupt results: the worst failure mode is running at numpy
  speed.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro import observability as _obs

#: Environment flag controlling the tier (see the module docstring).
ENV_FLAG = "REPRO_NATIVE"

#: Values of :data:`ENV_FLAG` that force the pure-numpy fallback tier.
_DISABLED_VALUES = {"0", "off", "false", "no"}

#: The compiled provider's name: the routing value of every kernel it serves.
PROVIDER = "cc"


@dataclass
class KernelSpec:
    """A dispatchable kernel: name and verifier."""

    name: str
    verify: Optional[Callable[[Callable], None]] = None


_KERNELS: Dict[str, KernelSpec] = {}

#: Cached resolutions keyed by mode: ``{mode: {"mode": str, "provider":
#: {"available": bool, "reason": str | None}, "kernels": {name: (provider,
#: callable)}, "reasons": {...}, "demotions": {...}}}``.  A mode is missing
#: until its first resolution (or after a refresh).
_RESOLVED: Dict[str, dict] = {}

#: Test/daemon override of the environment flag (``None`` follows the env).
_OVERRIDE: Optional[str] = None


def register_kernel(name: str, verify: Optional[Callable[[Callable], None]] = None) -> None:
    """Declare a dispatchable kernel (idempotent per name)."""
    _KERNELS[name] = KernelSpec(name=name, verify=verify)
    refresh()


def refresh() -> None:
    """Drop the cached resolution of every mode (re-resolved on next use)."""
    _RESOLVED.clear()


def _mode() -> str:
    """The effective tier mode: the test override, else the environment."""
    if _OVERRIDE is not None:
        return _OVERRIDE
    return os.environ.get(ENV_FLAG, "1").strip().lower() or "1"


@contextmanager
def use_native(mode):
    """Temporarily force a tier mode: ``False``/``"0"`` for the fallback,
    ``True``/``"1"`` for the compiled tier."""
    global _OVERRIDE
    if mode is True:
        mode = "1"
    elif mode is False:
        mode = "0"
    previous = _OVERRIDE
    _OVERRIDE = str(mode)
    try:
        yield
    finally:
        _OVERRIDE = previous


def _load_provider() -> Dict[str, Callable]:
    from repro.native import _cc_kernels

    return _cc_kernels.load_kernels()


def _resolve() -> dict:
    """Load the provider, verify every kernel, and cache the routing."""
    mode = _mode()
    if mode in _RESOLVED:
        return _RESOLVED[mode]
    loaded: Dict[str, Callable] = {}
    # Why every kernel is on the fallback (``None``: the provider loaded).
    unavailable: Optional[str] = None
    if mode in _DISABLED_VALUES:
        unavailable = f"disabled by {ENV_FLAG}={mode}"
        provider = {"available": False, "reason": unavailable}
    else:
        try:
            loaded = _load_provider()
            provider = {"available": True, "reason": None}
        except Exception as error:  # import/compile failures degrade, never raise
            provider = {"available": False, "reason": f"{type(error).__name__}: {error}"}
            unavailable = f"{PROVIDER} unavailable: {provider['reason']}"
    kernels: Dict[str, tuple] = {}
    reasons: Dict[str, str] = {}
    demotions: Dict[str, str] = {}
    for name, spec in _KERNELS.items():
        kernels[name] = ("fallback", None)
        if unavailable is not None:
            reasons[name] = unavailable
            continue
        implementation = loaded[name]
        try:
            if spec.verify is not None:
                spec.verify(implementation)
        except Exception as error:
            note = f"kernel {name!r} failed verification: {error}"
            provider["reason"] = (
                note if provider["reason"] is None else f"{provider['reason']}; {note}"
            )
            reasons[name] = demotions[name] = f"{PROVIDER}: failed verification: {error}"
            continue
        kernels[name] = (PROVIDER, implementation)
    _RESOLVED[mode] = {
        "mode": mode,
        "provider": provider,
        "kernels": kernels,
        "reasons": reasons,
        "demotions": demotions,
    }
    return _RESOLVED[mode]


def get_kernel(name: str) -> Optional[Callable]:
    """The verified compiled implementation of a kernel, or ``None``.

    ``None`` means the kernel is on the fallback (tier disabled, provider
    unavailable, or verification failed): the caller keeps its own inline
    numpy path.
    """
    if name not in _KERNELS:
        raise KeyError(f"unknown kernel {name!r}; registered: {sorted(_KERNELS)}")
    provider, implementation = _resolve()["kernels"][name]
    _obs.counter_add(f"native.dispatch.{provider}", 1.0)
    return implementation


def kernel_provider(name: str) -> str:
    """Which provider serves a kernel: ``"cc"`` or ``"fallback"``."""
    if name not in _KERNELS:
        raise KeyError(f"unknown kernel {name!r}; registered: {sorted(_KERNELS)}")
    return _resolve()["kernels"][name][0]


def kernel_demotions() -> Dict[str, str]:
    """Kernels the provider ships but that failed verification and fell back.

    ``{name: reason}``, empty on a healthy host.  A numpy build whose SIMD
    accumulation order differs from the one the compiled k-means++ round
    replicates shows up here instead of as a silent slowdown.
    """
    return dict(_resolve()["demotions"])


def native_status() -> dict:
    """Introspection snapshot of the tier: mode, provider, per-kernel routing.

    The ``tier`` field is ``"native"`` when at least one kernel resolved to
    the compiled provider and ``"fallback"`` otherwise — the value the CLI
    summary and the bench rows report so recorded numbers are attributable
    to the tier that produced them.  ``providers`` holds the one ``cc``
    entry (availability, load or verification errors, compiler).  A kernel
    that resolved to the fallback carries a ``reason``: ``"disabled by
    REPRO_NATIVE=<mode>"``, ``"cc unavailable: <error>"`` (import or
    compile failure), or ``"cc: failed verification: <error>"`` (see
    :func:`kernel_demotions`).
    """
    resolution = _resolve()
    provider = dict(resolution["provider"])
    try:
        from repro.native import _cc_kernels

        provider.update(_cc_kernels.describe())
    except Exception:  # description is cosmetic; never fail status
        pass
    # Sorted by name: registration order is an implementation detail, and a
    # stable ordering keeps status snapshots in tests and ``repro status``
    # diffs from churning as kernels are added.
    kernels = {}
    for name in sorted(resolution["kernels"]):
        kernels[name] = {"provider": resolution["kernels"][name][0]}
        if name in resolution["reasons"]:
            kernels[name]["reason"] = resolution["reasons"][name]
    native = any(entry["provider"] != "fallback" for entry in kernels.values())
    return {
        "mode": resolution["mode"],
        "tier": "native" if native else "fallback",
        "providers": {PROVIDER: provider},
        "kernels": kernels,
    }
