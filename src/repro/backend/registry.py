"""Backend registry: ordered capability probing over named backends.

Selection precedence, highest first:

1. an explicit name (``PipelineConfig(backend="vectorized")``, CLI
   ``--backend``, a direct :func:`get_backend` call);
2. the ``REPRO_BACKEND`` environment variable (how CI runs the whole
   tier-1 suite once per backend);
3. device-ordered probing: :func:`resolve_backend` walks
   CUDA -> MPS -> CPU (:data:`~repro.backend.base.DEVICE_ORDER`) and
   lands on the first backend whose factory actually comes up on that
   device.  Missing imports and absent devices are *recorded, not
   raised* — the walk is total and always reaches a CPU backend.

An explicit name (or the env var) is a **hard override**: if that
backend cannot come up on any allowed device the resolver raises a
:class:`~repro.errors.ConfigurationError` carrying the full probe
report instead of silently falling back.

Backends must be stateless (plans carry all state), so one instance per
``(name, device)`` pair is cached and shared across pipelines and
threads.  Failed probes are never cached: tests (and real machines)
may grow a device between calls.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.backend.base import DEVICE_ORDER, ComputeBackend
from repro.backend.reference import ReferenceBackend
from repro.backend.vectorized import VectorizedBackend
from repro.errors import BackendUnavailableError, ConfigurationError

__all__ = [
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "DeviceProbe",
    "ProbeReport",
    "ResolvedBackend",
    "register_backend",
    "available_backends",
    "default_backend_name",
    "get_backend",
    "resolve_backend",
    "probe_all",
]

DEFAULT_BACKEND = "reference"

#: environment variable consulted when no explicit backend name is given
ENV_VAR = "REPRO_BACKEND"


@dataclass(frozen=True)
class _Registration:
    factory: Callable[..., ComputeBackend]
    devices: tuple[str, ...]


@dataclass(frozen=True)
class DeviceProbe:
    """Outcome of trying one ``(backend, device)`` candidate."""

    backend: str
    device: str
    available: bool
    reason: str = ""

    def describe(self) -> str:
        mark = "ok" if self.available else "skipped"
        tail = f" ({self.reason})" if self.reason else ""
        return f"{self.backend}:{self.device} {mark}{tail}"


@dataclass(frozen=True)
class ProbeReport:
    """Every candidate tried during one resolution, in probe order."""

    requested: str | None
    device: str | None
    selected: str | None
    selected_device: str | None
    probes: tuple[DeviceProbe, ...] = field(default_factory=tuple)

    @property
    def path(self) -> str:
        """Compact one-line probe path for provenance stamps."""
        return " -> ".join(p.describe() for p in self.probes) or "(no candidates)"

    def format_report(self) -> str:
        """Multi-line human-readable report for ``--device list`` / errors."""
        lines = [
            f"requested backend: {self.requested or '(auto)'}",
            f"requested device:  {self.device or '(auto)'}",
        ]
        for probe in self.probes:
            lines.append(f"  - {probe.describe()}")
        if self.selected:
            lines.append(f"selected: {self.selected}:{self.selected_device}")
        else:
            lines.append("selected: (none)")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-serialisable form for BENCH provenance and ``/stats``."""
        return {
            "requested": self.requested,
            "device": self.device,
            "selected": self.selected,
            "selected_device": self.selected_device,
            "path": self.path,
            "probes": [
                {
                    "backend": p.backend,
                    "device": p.device,
                    "available": p.available,
                    "reason": p.reason,
                }
                for p in self.probes
            ],
        }


@dataclass(frozen=True)
class ResolvedBackend:
    """A live backend instance plus how the resolver got there."""

    backend: ComputeBackend
    name: str
    device: str
    report: ProbeReport


_lock = threading.Lock()
_factories: dict[str, _Registration] = {}
_instances: dict[tuple[str, str], ComputeBackend] = {}


def register_backend(
    name: str,
    factory: Callable[..., ComputeBackend],
    *,
    replace: bool = False,
    devices: tuple[str, ...] = ("cpu",),
) -> None:
    """Register ``factory`` under ``name`` (lazily instantiated, cached).

    ``devices`` lists the device kinds the backend can be probed on, e.g.
    ``("cuda", "mps", "cpu")`` for a device-aware backend.  CPU-only
    factories are called with no arguments; multi-device factories are
    called as ``factory(device=...)`` and must raise
    :class:`~repro.errors.BackendUnavailableError` (or ``ImportError``)
    when the device cannot be used here.
    """
    if not name or not name.isidentifier():
        raise ConfigurationError(f"backend name must be an identifier, got {name!r}")
    for device in devices:
        if device not in DEVICE_ORDER:
            raise ConfigurationError(
                f"backend {name!r} declares unknown device {device!r}; "
                f"choose from {DEVICE_ORDER}"
            )
    with _lock:
        if name in _factories and not replace:
            raise ConfigurationError(f"backend {name!r} is already registered")
        _factories[name] = _Registration(factory=factory, devices=tuple(devices))
        for key in [k for k in _instances if k[0] == name]:
            del _instances[key]


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    with _lock:
        return tuple(sorted(_factories))


def default_backend_name() -> str:
    """The name used when no explicit backend is requested (env-aware)."""
    return os.environ.get(ENV_VAR) or DEFAULT_BACKEND


def _build(name: str, device: str) -> ComputeBackend:
    """Instantiate (or fetch the cached) ``(name, device)`` backend.

    Raises whatever the factory raises — callers turn that into a probe.
    """
    key = (name, device)
    with _lock:
        instance = _instances.get(key)
        registration = _factories.get(name)
    if instance is not None:
        return instance
    if registration is None:
        raise ConfigurationError(f"unknown compute backend {name!r}")
    if registration.devices == ("cpu",):
        instance = registration.factory()
    else:
        instance = registration.factory(device=device)
    with _lock:
        # another thread may have won the race; keep the first instance
        instance = _instances.setdefault(key, instance)
    return instance


def _probe(name: str, device: str) -> tuple[DeviceProbe, ComputeBackend | None]:
    """Try one candidate; failures become a skip reason, never an exception."""
    try:
        backend = _build(name, device)
    except (BackendUnavailableError, ImportError) as exc:
        return DeviceProbe(name, device, False, str(exc) or type(exc).__name__), None
    return DeviceProbe(name, device, True), backend


def _candidates(device: str, prefer: str | None) -> list[str]:
    """Backend names to try on ``device``, best first."""
    with _lock:
        entries = list(_factories.items())
    names = [name for name, reg in entries if device in reg.devices]
    if prefer is not None:
        return [prefer] if prefer in names else []
    # the default backend is the canonical CPU landing spot
    if DEFAULT_BACKEND in names:
        names.remove(DEFAULT_BACKEND)
        names.insert(0 if device == "cpu" else len(names), DEFAULT_BACKEND)
    return names


def resolve_backend(
    prefer: str | None = None, device: str | None = None
) -> ResolvedBackend:
    """Resolve a backend by ordered capability probing.

    ``prefer`` (or, when unset, ``REPRO_BACKEND``) is a hard override:
    resolution is restricted to that backend and raises with the probe
    report if it cannot come up.  ``device`` restricts the walk to one
    device kind (``"auto"``/``None`` walk CUDA -> MPS -> CPU).  With no
    constraints the walk is total — it always lands on a CPU backend.
    """
    requested = prefer or os.environ.get(ENV_VAR) or None
    requested_device = None if device in (None, "auto") else device
    if requested_device is not None and requested_device not in DEVICE_ORDER:
        raise ConfigurationError(
            f"unknown device {requested_device!r}; choose from {DEVICE_ORDER} or 'auto'"
        )

    if requested is not None and requested not in _registered_names():
        raise ConfigurationError(_unknown_backend_message(requested))

    devices = (requested_device,) if requested_device else DEVICE_ORDER
    probes: list[DeviceProbe] = []
    for dev in devices:
        for name in _candidates(dev, requested):
            probe, backend = _probe(name, dev)
            probes.append(probe)
            if backend is not None:
                report = ProbeReport(
                    requested=requested,
                    device=requested_device,
                    selected=name,
                    selected_device=dev,
                    probes=tuple(probes),
                )
                return ResolvedBackend(backend=backend, name=name, device=dev, report=report)

    report = ProbeReport(
        requested=requested,
        device=requested_device,
        selected=None,
        selected_device=None,
        probes=tuple(probes),
    )
    what = f"backend {requested!r}" if requested else "any backend"
    where = f" on device {requested_device!r}" if requested_device else ""
    raise ConfigurationError(
        f"{what} is unavailable{where}; probe report:\n{report.format_report()}"
    )


def probe_all(device: str | None = None) -> ProbeReport:
    """Probe every registered ``(backend, device)`` candidate.

    Powers ``--device list``: nothing is selected, every candidate is
    tried and its skip reason (if any) recorded.
    """
    requested_device = None if device in (None, "auto") else device
    devices = (requested_device,) if requested_device else DEVICE_ORDER
    probes: list[DeviceProbe] = []
    for dev in devices:
        for name in _candidates(dev, None):
            probe, _ = _probe(name, dev)
            probes.append(probe)
    return ProbeReport(
        requested=None,
        device=requested_device,
        selected=None,
        selected_device=None,
        probes=tuple(probes),
    )


def _registered_names() -> tuple[str, ...]:
    with _lock:
        return tuple(_factories)


def _unknown_backend_message(resolved: str) -> str:
    """Unknown-name error listing registered names and probe skip reasons."""
    names = sorted(_registered_names())
    skipped = [p for p in probe_all().probes if not p.available]
    message = f"unknown compute backend {resolved!r}; choose from {names}"
    if skipped:
        reasons = "; ".join(p.describe() for p in skipped)
        message += f" (skipped candidates: {reasons})"
    return message


def get_backend(name: str | ComputeBackend | None = None) -> ComputeBackend:
    """Resolve ``name`` (or the env/default chain) to a backend instance.

    Accepts an already-resolved :class:`ComputeBackend` unchanged, so
    call sites can thread either a registry name or an instance through.
    Unlike the bare :func:`resolve_backend` walk this never auto-selects
    an accelerator: the requested (or default) backend is probed on its
    declared devices in order, which keeps the historical CPU behaviour
    for the NumPy backends while letting device-aware backends land on
    whatever device is actually present.
    """
    if isinstance(name, ComputeBackend):
        return name
    resolved = name or default_backend_name()
    if resolved not in _registered_names():
        raise ConfigurationError(_unknown_backend_message(resolved))
    return resolve_backend(prefer=resolved).backend


def _arrayapi(device: str) -> ComputeBackend:
    """The ``arrayapi`` factory: the module is imported on the first probe."""
    from repro.backend.arrayapi import ArrayApiBackend

    return ArrayApiBackend(device=device)


# the built-ins; a process that never probes arrayapi (every run on the
# default CPU backends) never imports it
register_backend("reference", ReferenceBackend)
register_backend("vectorized", VectorizedBackend)
register_backend("arrayapi", _arrayapi, devices=("cuda", "mps", "cpu"))
