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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "base": (
            "SPARSE_THRESHOLD",
            "WINDOW_AREA",
            "BackendCapabilities",
            "BilinearPlan",
            "IntegralPlan",
            "CascadeMaps",
            "CascadeEvaluator",
            "ComputeBackend",
            "ScratchArena",
        ),
        "reference": ("ReferenceBackend",),
        "vectorized": ("VectorizedBackend",),
        "arrayapi": ("ArrayApiBackend",),
        "registry": (
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
        ),
        "warps": ("warp_extremes",),
    },
)
