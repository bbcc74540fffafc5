"""Pluggable compute backends for the Fig. 1 per-frame numeric kernels.

Public surface:

* :class:`~repro.backend.base.ComputeBackend`, the plan/evaluator ABCs
  and :class:`~repro.backend.base.BackendCapabilities` — the seam every
  implementation fills in, plus its capability declaration;
* the registry (:func:`get_backend`, :func:`resolve_backend`,
  :func:`probe_all`, :func:`register_backend`,
  :func:`available_backends`) with the ``REPRO_BACKEND`` env override
  and ordered CUDA -> MPS -> CPU capability probing;
* the three built-in implementations: ``reference`` (the original NumPy
  code, the byte-identity oracle), ``vectorized`` (batched cascade
  evaluation, faster, bit-identical) and ``arrayapi`` (the array-API
  namespace backend — NumPy on CPU, CuPy/Torch when a device probes up,
  validated with tolerances);
* :func:`~repro.backend.oracle.compare_backends` — the cross-backend
  differ the golden tests are built on, byte-gated for bitexact
  backends and tolerance-gated for the rest.
"""

from __future__ import annotations

from repro.backend.arrayapi import ArrayApiBackend
from repro.backend.base import (
    SPARSE_THRESHOLD,
    WINDOW_AREA,
    BackendCapabilities,
    BilinearPlan,
    CascadeEvaluator,
    CascadeMaps,
    ComputeBackend,
    IntegralPlan,
    ScratchArena,
)
from repro.backend.reference import ReferenceBackend
from repro.backend.registry import (
    DEFAULT_BACKEND,
    ENV_VAR,
    DeviceProbe,
    ProbeReport,
    ResolvedBackend,
    available_backends,
    default_backend_name,
    get_backend,
    probe_all,
    register_backend,
    resolve_backend,
)
from repro.backend.vectorized import VectorizedBackend
from repro.backend.warps import warp_extremes

__all__ = [
    "SPARSE_THRESHOLD",
    "WINDOW_AREA",
    "BackendCapabilities",
    "BilinearPlan",
    "IntegralPlan",
    "CascadeMaps",
    "CascadeEvaluator",
    "ComputeBackend",
    "ScratchArena",
    "ReferenceBackend",
    "VectorizedBackend",
    "ArrayApiBackend",
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
    "warp_extremes",
]

# idempotent (replace=True): surviving importlib.reload matters more here
# than double-registration protection, which is for user-defined backends
register_backend("reference", ReferenceBackend, replace=True)
register_backend("vectorized", VectorizedBackend, replace=True)
register_backend(
    "arrayapi", ArrayApiBackend, replace=True, devices=("cuda", "mps", "cpu")
)
