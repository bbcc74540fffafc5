"""The ``arrayapi`` backend: the Fig. 1 kernels on an array-API namespace.

One implementation, several namespaces.  At construction the backend
resolves the requested device kind to a concrete array namespace:

``cuda``
    CuPy (first CUDA device) or, failing that, Torch with CUDA.
``mps``
    Torch with the Metal Performance Shaders device.
``cpu``
    NumPy — always importable, which is how CI exercises this backend
    on every run without any accelerator present.

When a namespace/device cannot come up the constructor raises
:class:`~repro.errors.BackendUnavailableError` with the reason; the
registry's capability probe records it and moves on to the next
candidate (CUDA -> MPS -> CPU), so resolution is total.

Each plan has one body, over a frame stack: one upload per stack, and
a single frame is the stack of one.

Numerically, every method replays the reference kernels' elementwise
order (``((A - B) - C) + D`` corner combination, float32 lerp weights,
axis-0-then-axis-1 cumulative sums), so on the NumPy namespace the
outputs match the ``reference`` backend bit-for-bit.  The backend still
declares ``exactness="tolerance"`` in its capability record: on real
accelerators fused multiply-adds and parallel reductions may legally
reorder float arithmetic, and the oracle validates this backend with
explicit per-stage bounds plus a detection-level IoU gate rather than
the byte gate (:mod:`repro.backend.oracle`).

The array-API subset used here is deliberately conservative so the same
code runs on NumPy, CuPy and Torch: flat 1-D ``take`` gathers only
(Torch's ``take`` has no axis), ``flip``/``concat`` instead of ``pad``
(not in the standard), no ``out=`` parameters, and small adapters for
the ``cumsum``/``cumulative_sum`` and ``nonzero`` surface differences.
Results cross the seam back to the caller as NumPy arrays.
"""

from __future__ import annotations

import math

import numpy as np

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
from repro.backend.compiled import compile_cascade
from repro.errors import BackendUnavailableError, ConfigurationError
from repro.image.filtering import binomial_kernel

__all__ = [
    "ArrayApiBackend",
    "ArrayApiBilinearPlan",
    "ArrayApiIntegralPlan",
    "ArrayApiCascadeEvaluator",
]


def _resolve_namespace(device: str):
    """Resolve ``device`` to ``(namespace, api_name)`` or raise with why not."""
    if device == "cuda":
        reasons = []
        try:
            import cupy  # noqa: F401 - optional accelerator namespace
        except ImportError as exc:
            reasons.append(f"cupy not importable ({exc})")
        else:
            try:
                count = int(cupy.cuda.runtime.getDeviceCount())
            except Exception as exc:  # driver/runtime errors count as "absent"
                reasons.append(f"cupy importable but CUDA runtime failed ({exc})")
            else:
                if count > 0:
                    return cupy, "cupy"
                reasons.append("cupy importable but no CUDA device present")
        try:
            import torch  # noqa: F401 - optional accelerator namespace
        except ImportError as exc:
            reasons.append(f"torch not importable ({exc})")
        else:
            if torch.cuda.is_available():
                return torch, "torch"
            reasons.append("torch importable but torch.cuda.is_available() is False")
        raise BackendUnavailableError("cuda unavailable: " + "; ".join(reasons))
    if device == "mps":
        try:
            import torch
        except ImportError as exc:
            raise BackendUnavailableError(
                f"mps unavailable: torch not importable ({exc})"
            ) from exc
        if torch.backends.mps.is_available():
            return torch, "torch"
        raise BackendUnavailableError(
            "mps unavailable: torch importable but "
            "torch.backends.mps.is_available() is False"
        )
    if device == "cpu":
        return np, "numpy"
    raise BackendUnavailableError(f"unknown device kind {device!r}")


class ArrayApiBilinearPlan(BilinearPlan):
    """The ``tex2D`` bilinear gather as four flat-index corner fetches.

    Index/weight precomputation matches
    :class:`~repro.backend.reference.ReferenceBilinearPlan` exactly
    (texel centres at ``+0.5``, clamp-to-edge, float32 lerp weights);
    only the gather shape differs — flat 1-D ``take`` works on every
    array-API namespace, axis gathers do not.
    """

    def __init__(self, backend: "ArrayApiBackend", src_h, src_w, dst_h, dst_w) -> None:
        self._b = backend
        self._shape = (dst_h, dst_w)
        xp = backend._xp
        sx = src_w / dst_w
        sy = src_h / dst_h
        xs = (np.arange(dst_w, dtype=np.float64) + 0.5) * sx
        ys = (np.arange(dst_h, dtype=np.float64) + 0.5) * sy
        xf = xs - 0.5
        yf = ys - 0.5
        x0 = np.floor(xf).astype(np.int64)
        y0 = np.floor(yf).astype(np.int64)
        fx = (xf - x0).astype(np.float32)
        fy = (yf - y0).astype(np.float32)
        x0c = np.clip(x0, 0, src_w - 1)
        x1c = np.clip(x0 + 1, 0, src_w - 1)
        y0c = np.clip(y0, 0, src_h - 1)
        y1c = np.clip(y0 + 1, 0, src_h - 1)
        # four (dst_h * dst_w,) corner indices into the flattened source
        self._i00 = xp.asarray((y0c[:, None] * src_w + x0c[None, :]).reshape(-1))
        self._i01 = xp.asarray((y0c[:, None] * src_w + x1c[None, :]).reshape(-1))
        self._i10 = xp.asarray((y1c[:, None] * src_w + x0c[None, :]).reshape(-1))
        self._i11 = xp.asarray((y1c[:, None] * src_w + x1c[None, :]).reshape(-1))
        self._fx = xp.asarray(fx)
        self._omfx = xp.asarray((1.0 - fx).astype(np.float32))
        self._fy = xp.asarray(fy[:, np.newaxis])
        self._omfy = xp.asarray((1.0 - fy).astype(np.float32)[:, np.newaxis])

    def apply(self, src: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Resample a ``(..., src_h, src_w)`` stack — one upload.

        The stack crosses the host->device boundary in a single
        ``asarray`` and every corner is gathered through one flat
        ``take`` with per-lane plane offsets, so the transfer and
        dispatch cost is paid once per stack, not once per frame.
        """
        b = self._b
        xp = b._xp
        dh, dw = self._shape
        src = np.asarray(src)
        lanes = src.shape[:-2]
        n = math.prod(lanes)
        plane = src.shape[-2] * src.shape[-1]
        flat = xp.reshape(b._astype(xp.asarray(src), xp.float32), (-1,))
        bases = xp.reshape(b._astype(xp.arange(n), self._i00.dtype) * plane, (n, 1))

        def gather(idx):
            full = xp.reshape(idx, (1, -1)) + bases
            return xp.reshape(xp.take(flat, xp.reshape(full, (-1,))), (n, dh, dw))

        g00 = gather(self._i00)
        g01 = gather(self._i01)
        g10 = gather(self._i10)
        g11 = gather(self._i11)
        # top = d[y0, x0] * (1 - fx) + d[y0, x1] * fx  (float32, as tex2D)
        top = g00 * self._omfx + g01 * self._fx
        bottom = g10 * self._omfx + g11 * self._fx
        result = b._to_host(top * self._omfy + bottom * self._fy).reshape(lanes + (dh, dw))
        if out is None:
            return result
        out[...] = result
        return out


class ArrayApiIntegralPlan(IntegralPlan):
    """Integral + squared integral through the namespace's cumulative sums.

    The returned arrays are zero-bordered host buffers in the plan's
    :class:`~repro.backend.base.ScratchArena` (overwritten per
    :meth:`compute`, like device-resident memory that is copied back
    over the same staging area).
    """

    def __init__(
        self,
        backend: "ArrayApiBackend",
        height: int,
        width: int,
        *,
        arena: ScratchArena | None = None,
    ) -> None:
        if height <= 0 or width <= 0:
            raise ConfigurationError("image dimensions must be positive")
        self.height = height
        self.width = width
        self._b = backend
        self._arena = arena if arena is not None else ScratchArena()

    def compute(self, image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Integrals of a ``(..., h, w)`` stack — one upload, one scan per
        axis; cumulative sums run lane by lane along the stacked axes."""
        b = self._b
        xp = b._xp
        image = np.asarray(image)
        shape = image.shape[:-2] + (self.height + 1, self.width + 1)
        ii = self._arena.take("integral.ii", shape, np.float64)
        sqii = self._arena.take("integral.sqii", shape, np.float64)
        # the buffers are shared across level shapes: re-zero the border
        for padded in (ii, sqii):
            padded[..., 0, :] = 0.0
            padded[..., 1:, 0] = 0.0
        img = b._astype(xp.asarray(image), xp.float64)
        ii[..., 1:, 1:] = b._to_host(b._cumsum(b._cumsum(img, -2), -1))
        sq = img * img
        sqii[..., 1:, 1:] = b._to_host(b._cumsum(b._cumsum(sq, -2), -1))
        return ii, sqii


class ArrayApiCascadeEvaluator(CascadeEvaluator):
    """Dense/sparse cascade walk over a frame stack in array-API ops.

    Functional style (``where`` instead of masked stores, so no scratch)
    with the same per-rectangle ``((A - B) - C) + D`` combination and the
    same dense->sparse switch rule as the reference evaluator, so the
    depth/margin/sigma maps agree elementwise.  The walk always runs over
    an ``(n, h+1, w+1)`` stack: one frame is the n=1 case.
    """

    def __init__(self, backend, cascade, mapping, *, sparse_threshold=None) -> None:
        self._b = backend
        self._compiled = compile_cascade(cascade)
        self._plan = self._compiled.stages
        self._mapping = mapping
        if sparse_threshold is None:
            sparse_threshold = SPARSE_THRESHOLD
        self._sparse_threshold = sparse_threshold
        self._ay, self._ax = mapping.anchors_y, mapping.anchors_x
        self._window = mapping.window
        self._stride = mapping.level_width + 1
        self._ii_shape = (mapping.level_height + 1, self._stride)

    def _bind_offsets(self):
        """This level's ``(R, 4)`` flat corner offsets in the namespace,
        bound once per kernel call: each classifier's rects are a slice."""
        compiled = self._compiled
        return self._b._xp.asarray(compiled.rows * self._stride + compiled.cols)

    def _sigma_device(self, ii, sqii):
        """Window sums + variance normalisation, same op order as reference."""
        b = self._b
        xp = b._xp
        w = self._window
        area = WINDOW_AREA
        wsum = ((ii[..., w:, w:] - ii[..., :-w, w:]) - ii[..., w:, :-w]) + ii[..., :-w, :-w]
        wsq = (
            (sqii[..., w:, w:] - sqii[..., :-w, w:]) - sqii[..., w:, :-w]
        ) + sqii[..., :-w, :-w]
        mean = wsum / area
        ga = wsq / area - mean * mean
        return xp.sqrt(b._clamp_min(ga, 1.0))

    def window_sigma(self, ii: np.ndarray, sqii: np.ndarray) -> np.ndarray:
        b = self._b
        xp = b._xp
        return b._to_host(self._sigma_device(xp.asarray(ii), xp.asarray(sqii)))

    def evaluate(self, ii: np.ndarray, sqii: np.ndarray) -> CascadeMaps:
        """Cascade walk over a ``(..., h+1, w+1)`` stack — one upload each.

        The stacked integrals cross the host->device boundary once; dense
        stages run elementwise over the ``(n, ay, ax)`` stack and sparse
        stages gather every lane's survivors through one flattened view
        with per-lane plane offsets.  The dense->sparse switch is taken
        once for the whole stack (the switch point is bit-neutral by the
        seam contract, so each lane still agrees with that frame walked
        alone to within this backend's tolerance envelope — exactly, on
        the NumPy namespace).
        """
        b = self._b
        xp = b._xp
        shape = np.shape(ii)[:-2] + (self._ay, self._ax)
        ii_d = xp.reshape(xp.asarray(ii), (-1,) + self._ii_shape)
        sqii_d = xp.reshape(xp.asarray(sqii), (-1,) + self._ii_shape)
        sigma = self._sigma_device(ii_d, sqii_d)
        grids = tuple(sigma.shape)

        depth = xp.zeros(grids, dtype=xp.int32)
        margin = xp.zeros(grids, dtype=xp.float64)
        alive = xp.ones(grids, dtype=b._bool)
        sparse = None
        total = math.prod(grids)
        flat = xp.reshape(ii_d, (-1,))
        offsets = self._bind_offsets()

        for stage in self._plan:
            if sparse is None:
                live = int(xp.count_nonzero(alive))
                if live == 0:
                    break
                if live < max(64, self._sparse_threshold * total):
                    sparse = b._nonzero(alive)
            if sparse is not None:
                sparse, depth, margin = self._sparse_stage(
                    stage, flat, offsets, sigma, depth, margin, sparse
                )
                if sparse is None:
                    break
            else:
                depth, margin, alive = self._dense_stage(
                    stage, ii_d, sigma, depth, margin, alive
                )

        return CascadeMaps(
            depth_map=b._astype_host(depth, np.int32).reshape(shape),
            margin_map=b._astype_host(margin, np.float64).reshape(shape),
            sigma_map=b._astype_host(sigma, np.float64).reshape(shape),
        )

    def _dense_stage(self, stage, ii, sigma, depth, margin, alive):
        xp = self._b._xp
        ay, ax = self._ay, self._ax
        sums = xp.zeros(tuple(depth.shape), dtype=xp.float64)
        for cl in stage.classifiers:
            vals = xp.zeros(tuple(depth.shape), dtype=xp.float64)
            for x0, y0, x1, y1, wt in cl.rects:
                # wt * (((A - B) - C) + D), replayed in the reference order
                t = ii[:, y1 : y1 + ay, x1 : x1 + ax] - ii[:, y0 : y0 + ay, x1 : x1 + ax]
                t = t - ii[:, y1 : y1 + ay, x0 : x0 + ax]
                t = t + ii[:, y0 : y0 + ay, x0 : x0 + ax]
                vals = vals + t * wt
            mask = vals <= sigma * cl.threshold
            sums = sums + xp.where(mask, cl.left, cl.right)
        margin = xp.where(alive, sums - stage.threshold, margin)
        passed = xp.logical_and(alive, sums >= stage.threshold)
        depth = xp.where(passed, depth + 1, depth)
        return depth, margin, passed

    def _sparse_stage(self, stage, flat, offsets, sigma, depth, margin, sparse):
        """One stage over the survivors ``sparse``, ``(fs, ys, xs)`` of a
        stack whose integrals ``flat`` flattens plane after plane."""
        b = self._b
        xp = b._xp
        fs, ys, xs = sparse
        if int(ys.shape[0]) == 0:
            return None, depth, margin
        anchor = (fs * self._ay + ys) * self._ax + xs
        base = (fs * self._ii_shape[0] + ys) * self._stride + xs
        sig = xp.take(xp.reshape(sigma, (-1,)), anchor)
        n = int(ys.shape[0])
        sums = xp.zeros(n, dtype=xp.float64)
        for cl in stage.classifiers:
            # gather all corners of all rects at once: (n_rects, 4, n)
            idx = offsets[cl.start : cl.end, :, None] + base
            corners = xp.reshape(xp.take(flat, xp.reshape(idx, (-1,))), idx.shape)
            vals = xp.zeros(n, dtype=xp.float64)
            for r, (_x0, _y0, _x1, _y1, wt) in enumerate(cl.rects):
                g = corners[r]
                t = ((g[0] - g[1]) - g[2]) + g[3]
                vals = vals + t * wt
            mask = vals <= sig * cl.threshold
            sums = sums + xp.where(mask, cl.left, cl.right)
        margin[sparse] = sums - stage.threshold
        mask = sums >= stage.threshold
        survivors = tuple(ix[mask] for ix in sparse)
        depth[survivors] = depth[survivors] + 1
        return survivors, depth, margin


class ArrayApiBackend(ComputeBackend):
    """Device-aware backend over a resolved array-API namespace."""

    name = "arrayapi"

    def __init__(self, device: str = "cpu") -> None:
        self._device = device
        self._xp, self._api = _resolve_namespace(device)
        self._bool = getattr(self._xp, "bool", None) or self._xp.bool_

    @property
    def capabilities(self) -> BackendCapabilities:
        # tolerance, not bitexact: accelerator namespaces may legally fuse
        # and reorder float arithmetic even though the NumPy namespace
        # happens to reproduce the reference bits
        return BackendCapabilities(
            device=self._device, dtype="float64", exactness="tolerance"
        )

    @property
    def device(self) -> str:
        return self._device

    @property
    def api(self) -> str:
        """Name of the resolved namespace: ``numpy``/``cupy``/``torch``."""
        return self._api

    # -- namespace adapters --------------------------------------------------

    def _astype(self, a, dtype):
        fn = getattr(self._xp, "astype", None)
        if fn is not None:
            return fn(a, dtype)
        return a.astype(dtype)

    def _to_host(self, a) -> np.ndarray:
        if self._api == "cupy":
            return self._xp.asnumpy(a)
        if self._api == "torch":
            return a.detach().cpu().numpy()
        return np.asarray(a)

    def _astype_host(self, a, dtype) -> np.ndarray:
        return np.ascontiguousarray(self._to_host(a), dtype=dtype)

    def _cumsum(self, a, axis):
        fn = getattr(self._xp, "cumulative_sum", None)
        if fn is not None:
            return fn(a, axis=axis)
        return self._xp.cumsum(a, axis=axis)

    def _clamp_min(self, a, value):
        try:
            return self._xp.maximum(a, value)
        except TypeError:  # torch: both operands must be tensors
            return self._xp.maximum(a, self._xp.asarray(value, dtype=a.dtype))

    def _nonzero(self, a):
        result = self._xp.nonzero(a)
        if isinstance(result, (tuple, list)):
            return tuple(result)
        # torch without as_tuple returns an (n, ndim) index tensor
        return tuple(result[:, i] for i in range(result.shape[1]))

    # -- Fig. 1 "Filtering" --------------------------------------------------

    def antialias(self, image: np.ndarray, scale: float) -> np.ndarray:
        if scale < 1.0:
            raise ConfigurationError(f"scale must be >= 1, got {scale}")
        if scale < 1.25:
            radius = 0
        elif scale < 2.5:
            radius = 1
        else:
            radius = 2
        xp = self._xp
        img = self._astype(xp.asarray(image), xp.float32)
        if img.ndim != 2:
            raise ConfigurationError(f"expected 2-D image, got ndim={img.ndim}")
        if radius == 0:
            return self._to_host(img)
        kernel = binomial_kernel(radius)
        out = self._convolve_axis(img, kernel, 0)
        out = self._convolve_axis(out, kernel, 1)
        return self._to_host(out)

    def _convolve_axis(self, image, kernel, axis):
        """Reflect-pad shifted-add convolution, float32, reference tap order.

        The array-API standard has no ``pad``; the reflect border is two
        ``flip`` slices and a ``concat``, which every namespace supports.
        """
        xp = self._xp
        radius = (len(kernel) - 1) // 2
        length = int(image.shape[axis])
        if length <= radius:
            raise ConfigurationError(
                f"axis {axis} of length {length} is too short to reflect-pad "
                f"by radius {radius}"
            )
        if axis == 0:
            head = xp.flip(image[1 : radius + 1, :], axis=0)
            tail = xp.flip(image[-radius - 1 : -1, :], axis=0)
        else:
            head = xp.flip(image[:, 1 : radius + 1], axis=1)
            tail = xp.flip(image[:, -radius - 1 : -1], axis=1)
        padded = xp.concat([head, image, tail], axis=axis)
        out = xp.zeros(image.shape, dtype=xp.float32)
        for tap in range(len(kernel)):
            weight = float(kernel[tap])
            if axis == 0:
                piece = padded[tap : tap + length, :]
            else:
                piece = padded[:, tap : tap + length]
            out = out + weight * piece
        return out

    # -- Fig. 1 "Scaling" ----------------------------------------------------

    def downscale(self, image: np.ndarray, out_width: int, out_height: int) -> np.ndarray:
        image = np.asarray(image)
        plan = ArrayApiBilinearPlan(
            self, image.shape[0], image.shape[1], out_height, out_width
        )
        return plan.apply(image)

    def make_bilinear_plan(
        self, src_h, src_w, dst_h, dst_w, *, arena=None
    ) -> ArrayApiBilinearPlan:
        # the gather is allocation-only (no out= in the array API): no scratch
        return ArrayApiBilinearPlan(self, src_h, src_w, dst_h, dst_w)

    # -- Fig. 1 "Integral image" ---------------------------------------------

    def integral_image(self, image: np.ndarray) -> np.ndarray:
        image = np.asarray(image)
        plan = ArrayApiIntegralPlan(self, image.shape[0], image.shape[1])
        ii, _ = plan.compute(image)
        return ii.copy()

    def squared_integral_image(self, image: np.ndarray) -> np.ndarray:
        image = np.asarray(image)
        plan = ArrayApiIntegralPlan(self, image.shape[0], image.shape[1])
        _, sqii = plan.compute(image)
        return sqii.copy()

    def transpose(self, matrix: np.ndarray) -> np.ndarray:
        xp = self._xp
        m = xp.asarray(matrix)
        permute = getattr(xp, "permute_dims", None)
        t = permute(m, (1, 0)) if permute is not None else xp.transpose(m)
        return np.ascontiguousarray(self._to_host(t))

    def make_integral_plan(
        self, height: int, width: int, *, arena=None
    ) -> ArrayApiIntegralPlan:
        return ArrayApiIntegralPlan(self, height, width, arena=arena)

    # -- Fig. 1 "Face detection kernel" --------------------------------------

    def make_cascade_evaluator(
        self, cascade, mapping, *, sparse_threshold: float | None = None, arena=None
    ) -> ArrayApiCascadeEvaluator:
        # functional style, no scratch: ``arena`` is accepted and unused
        return ArrayApiCascadeEvaluator(
            self, cascade, mapping, sparse_threshold=sparse_threshold
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ArrayApiBackend device={self._device!r} api={self._api!r}>"
