"""Kernel dispatch registry for the optional compiled tier.

The registry is the single seam between the pure-numpy library code and any
compiled kernel implementation: callers ask for a kernel *by name* through
:func:`get_kernel` (or the public wrappers in :mod:`repro.native.kernels`)
and never import a backend module directly.  Providers — currently ``numba``
(preferred when importable) and ``cc`` (a small C translation unit compiled
on first use with the system compiler) — register a loader that returns a
``{kernel name: callable}`` mapping; kernels register an optional pure-numpy
fallback plus a *verifier* that is run once against every provider's
implementation before it is ever trusted.

Resolution contract
-------------------
* ``REPRO_NATIVE=0`` (also ``off``/``false``/``no``) forces the fallback
  tier for every kernel — the escape hatch.  Unset or ``1`` enables the
  tier with automatic provider preference; a provider name (``numba`` or
  ``cc``) restricts resolution to that provider, falling back to pure numpy
  when it is unavailable.
* Resolution happens lazily on the first :func:`get_kernel` call and is
  cached per process; :func:`refresh` drops the cache (tests and long-lived
  daemons that flip the environment call it), and :func:`use_native` is a
  context manager doing exactly that around a block.
* Every provider kernel must pass its registered verifier (a cheap
  bit-identity check against the numpy reference on small inputs) during
  resolution.  A provider that fails to import, compile, or verify is
  skipped with the reason recorded — visible via :func:`native_status`,
  which also gives each fallback kernel its ``reason``, and for failed
  verifications via :func:`kernel_demotions` and the ``compress`` summary —
  and the next provider (ultimately the fallback) serves the kernel.  A
  runtime-compiled kernel therefore can never silently corrupt results:
  the worst failure mode is running at fallback speed.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import observability as _obs

#: Environment flag controlling the tier (see the module docstring).
ENV_FLAG = "REPRO_NATIVE"

#: Values of :data:`ENV_FLAG` that force the pure-numpy fallback tier.
_DISABLED_VALUES = {"0", "off", "false", "no"}


@dataclass
class KernelSpec:
    """A dispatchable kernel: name, optional numpy fallback, verifier."""

    name: str
    fallback: Optional[Callable] = None
    verify: Optional[Callable[[Callable], None]] = None


@dataclass
class ProviderSpec:
    """A kernel provider: preference-ordered loader of compiled kernels."""

    name: str
    loader: Callable[[], Dict[str, Callable]]
    describe: Optional[Callable[[], Dict[str, object]]] = None


_KERNELS: Dict[str, KernelSpec] = {}
_PROVIDERS: List[ProviderSpec] = []

#: Cached resolution: ``{"kernels": {name: (provider, callable)},
#: "providers": {name: {"available": bool, "reason": str | None}}}`` or
#: ``None`` when resolution has not run (or was refreshed).
_RESOLVED: Optional[dict] = None

#: Test/daemon override of the environment flag (``None`` follows the env).
_OVERRIDE: Optional[str] = None


def register_kernel(
    name: str,
    fallback: Optional[Callable] = None,
    verify: Optional[Callable[[Callable], None]] = None,
) -> None:
    """Declare a dispatchable kernel (idempotent per name)."""
    _KERNELS[name] = KernelSpec(name=name, fallback=fallback, verify=verify)
    refresh()


def register_provider(
    name: str,
    loader: Callable[[], Dict[str, Callable]],
    describe: Optional[Callable[[], Dict[str, object]]] = None,
) -> None:
    """Declare a provider; registration order is the preference order."""
    global _PROVIDERS
    _PROVIDERS = [p for p in _PROVIDERS if p.name != name]
    _PROVIDERS.append(ProviderSpec(name=name, loader=loader, describe=describe))
    refresh()


def refresh() -> None:
    """Drop the cached resolution (re-reads the environment on next use)."""
    global _RESOLVED
    _RESOLVED = None


def _mode() -> str:
    """The effective tier mode: the test override, else the environment."""
    if _OVERRIDE is not None:
        return _OVERRIDE
    return os.environ.get(ENV_FLAG, "1").strip().lower() or "1"


@contextmanager
def use_native(mode):
    """Temporarily force a tier mode: ``False``/``"0"`` for the fallback,
    ``True``/``"1"`` for automatic native, or a provider name."""
    global _OVERRIDE
    if mode is True:
        mode = "1"
    elif mode is False:
        mode = "0"
    previous = _OVERRIDE
    _OVERRIDE = str(mode)
    refresh()
    try:
        yield
    finally:
        _OVERRIDE = previous
        refresh()


def _resolve() -> dict:
    """Load, verify, and cache the best provider for every kernel."""
    global _RESOLVED
    if _RESOLVED is not None:
        return _RESOLVED
    mode = _mode()
    provider_status: Dict[str, dict] = {}
    loaded: Dict[str, Dict[str, Callable]] = {}
    if mode in _DISABLED_VALUES:
        candidates: List[ProviderSpec] = []
    elif any(p.name == mode for p in _PROVIDERS):
        candidates = [p for p in _PROVIDERS if p.name == mode]
    else:
        candidates = list(_PROVIDERS)
    for provider in _PROVIDERS:
        if not any(c.name == provider.name for c in candidates):
            provider_status[provider.name] = {
                "available": False,
                "reason": f"disabled by {ENV_FLAG}={mode}",
            }
            continue
        try:
            loaded[provider.name] = provider.loader()
            provider_status[provider.name] = {"available": True, "reason": None}
        except Exception as error:  # import/compile failures degrade, never raise
            provider_status[provider.name] = {
                "available": False,
                "reason": f"{type(error).__name__}: {error}",
            }
    kernels: Dict[str, tuple] = {}
    reasons: Dict[str, str] = {}
    demotions: Dict[str, str] = {}
    for name, spec in _KERNELS.items():
        resolved = ("fallback", spec.fallback)
        failures = []
        for provider in candidates:
            implementation = loaded.get(provider.name, {}).get(name)
            if implementation is None:
                continue
            try:
                if spec.verify is not None:
                    spec.verify(implementation)
            except Exception as error:
                status = provider_status[provider.name]
                note = f"kernel {name!r} failed verification: {error}"
                status["reason"] = (
                    note if status["reason"] is None else f"{status['reason']}; {note}"
                )
                failures.append(f"{provider.name}: failed verification: {error}")
                continue
            resolved = (provider.name, implementation)
            break
        kernels[name] = resolved
        if resolved[0] == "fallback":
            if failures:
                reasons[name] = demotions[name] = "; ".join(failures)
            elif not candidates:
                reasons[name] = f"disabled by {ENV_FLAG}={mode}"
            else:
                reasons[name] = "no provider ships it"
    _RESOLVED = {
        "mode": mode,
        "providers": provider_status,
        "kernels": kernels,
        "reasons": reasons,
        "demotions": demotions,
    }
    return _RESOLVED


def get_kernel(name: str) -> Optional[Callable]:
    """The resolved implementation of a kernel (``None`` = no fallback either).

    Returns the verified native implementation when the tier is enabled and
    a provider serves the kernel, the registered pure-numpy fallback
    otherwise.  Kernels registered without a fallback return ``None`` in
    fallback mode — the caller keeps its own inline numpy path.
    """
    if name not in _KERNELS:
        raise KeyError(f"unknown kernel {name!r}; registered: {sorted(_KERNELS)}")
    provider, implementation = _resolve()["kernels"][name]
    _obs.counter_add(f"native.dispatch.{provider}", 1.0)
    return implementation


def kernel_provider(name: str) -> str:
    """Which provider serves a kernel: a provider name or ``"fallback"``."""
    if name not in _KERNELS:
        raise KeyError(f"unknown kernel {name!r}; registered: {sorted(_KERNELS)}")
    return _resolve()["kernels"][name][0]


def kernel_demotions() -> Dict[str, str]:
    """Kernels a provider ships but that failed verification and fell back.

    ``{name: reason}``, empty on a healthy host.  A numpy build whose SIMD
    accumulation order differs from the one the compiled distance kernels
    replicate shows up here instead of as a silent slowdown.
    """
    return dict(_resolve()["demotions"])


def native_status() -> dict:
    """Introspection snapshot of the tier: mode, providers, per-kernel routing.

    The ``tier`` field is ``"native"`` when at least one kernel resolved to
    a compiled provider and ``"fallback"`` otherwise — the value the CLI
    summary and the bench rows report so recorded numbers are attributable
    to the tier that produced them.  A kernel that resolved to the fallback
    carries a ``reason``: ``"disabled by REPRO_NATIVE=<mode>"``,
    ``"<provider>: failed verification: <error>"`` (see
    :func:`kernel_demotions`), or ``"no provider ships it"`` (no loaded
    candidate provider implements it; ``providers`` shows load failures).
    """
    resolution = _resolve()
    # Sorted by name on both axes: registration order is an implementation
    # detail, and a stable ordering keeps status snapshots in tests and
    # ``repro status`` diffs from churning as kernels are added.
    providers: Dict[str, dict] = {}
    for provider in sorted(_PROVIDERS, key=lambda spec: spec.name):
        entry = dict(resolution["providers"].get(provider.name, {"available": False, "reason": "not resolved"}))
        if provider.describe is not None:
            try:
                entry.update(provider.describe())
            except Exception:  # description is cosmetic; never fail status
                pass
        providers[provider.name] = entry
    kernels = {}
    for name in sorted(resolution["kernels"]):
        kernels[name] = {"provider": resolution["kernels"][name][0]}
        if name in resolution["reasons"]:
            kernels[name]["reason"] = resolution["reasons"][name]
    native = any(entry["provider"] != "fallback" for entry in kernels.values())
    return {
        "mode": resolution["mode"],
        "tier": "native" if native else "fallback",
        "providers": providers,
        "kernels": kernels,
    }
