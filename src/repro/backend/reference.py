"""The ``reference`` backend: the original NumPy kernels, now behind the seam.

Every method is the pre-existing implementation *moved, not rewritten* —
the pyramid/filtering/integral primitives delegate to :mod:`repro.image`,
and the cascade evaluator is the dense/sparse stage code that previously
lived as private copies inside :mod:`repro.detect.engine`.  This backend
is the byte-identity oracle every other backend is differenced against
(:mod:`repro.backend.oracle`), so it stays per-frame by construction:
each plan's body works on one 2-D frame, and its public method loops
that body over the lanes of a ``(..., h, w)`` stack, writing each lane
into the stacked output.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.backend.base import (
    SPARSE_THRESHOLD,
    WINDOW_AREA,
    BilinearPlan,
    CascadeEvaluator,
    CascadeMaps,
    ComputeBackend,
    IntegralPlan,
    ScratchArena,
)
from repro.backend.compiled import compile_cascade
from repro.errors import ConfigurationError

__all__ = [
    "ReferenceBilinearPlan",
    "ReferenceIntegralPlan",
    "ReferenceCascadeEvaluator",
    "ReferenceBackend",
]


def _lanes(array: np.ndarray) -> np.ndarray:
    """``array`` as a stack of 2-D lanes, a view of it (one lane for a
    2-D array)."""
    return array.reshape((-1,) + array.shape[-2:])


# ---------------------------------------------------------------------------
# pyramid resampling plan (frame independent, per geometry)


class ReferenceBilinearPlan(BilinearPlan):
    """Precomputed ``tex2D`` bilinear gather for one (src, dst) geometry.

    Index and weight arrays reproduce :meth:`repro.image.texture.
    Texture2D.fetch` exactly (texel centres at ``+0.5``, clamp-to-edge,
    float32 lerp weights), so applying the plan yields the same bits as
    building a :class:`Texture2D` and fetching the grid.
    """

    __slots__ = ("y0", "y1", "fy", "omfy", "x0", "x1", "fx", "omfx", "_arena", "_panel", "_grid")

    def __init__(
        self,
        src_h: int,
        src_w: int,
        dst_h: int,
        dst_w: int,
        *,
        arena: ScratchArena | None = None,
    ) -> None:
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
        self.x0 = np.clip(x0, 0, src_w - 1)
        self.x1 = np.clip(x0 + 1, 0, src_w - 1)
        self.y0 = np.clip(y0, 0, src_h - 1)
        self.y1 = np.clip(y0 + 1, 0, src_h - 1)
        self.fx = fx
        self.omfx = (1.0 - fx).astype(np.float32)
        self.fy = fy[:, np.newaxis]
        self.omfy = (1.0 - fy).astype(np.float32)[:, np.newaxis]
        self._arena = arena if arena is not None else ScratchArena()
        self._panel = (dst_h, src_w)
        self._grid = (dst_h, dst_w)

    def apply(self, src: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Resample a ``(..., src_h, src_w)`` stack into a fresh (or
        provided) ``(..., dst_h, dst_w)`` one, lane by lane."""
        src = np.asarray(src)
        if out is None:
            out = np.empty(src.shape[:-2] + self._grid, dtype=np.float32)
        for lane, dst in zip(_lanes(src), _lanes(out)):
            self._resample(lane, dst)
        return out

    def _resample(self, src: np.ndarray, out: np.ndarray) -> None:
        """The per-frame body: one ``(src_h, src_w)`` frame into ``out``."""
        # scratch: one row-gather panel, refilled for the second source
        # row, and three grids: the top lerp, the bottom lerp, and each
        # row's right-hand corner (dead once its row lerp has run)
        take = self._arena.take
        rows = take("bilinear.rows", self._panel, np.float32)
        top, bottom, right = (
            take(f"bilinear.g{i}", self._grid, np.float32) for i in range(3)
        )
        # top = d[y0, x0] * (1 - fx) + d[y0, x1] * fx  (float32, as tex2D)
        np.take(src, self.y0, axis=0, out=rows)
        np.take(rows, self.x0, axis=1, out=top)
        np.take(rows, self.x1, axis=1, out=right)
        np.multiply(top, self.omfx, out=top)
        np.multiply(right, self.fx, out=right)
        np.add(top, right, out=top)
        # bottom = d[y1, x0] * (1 - fx) + d[y1, x1] * fx
        np.take(src, self.y1, axis=0, out=rows)
        np.take(rows, self.x0, axis=1, out=bottom)
        np.take(rows, self.x1, axis=1, out=right)
        np.multiply(bottom, self.omfx, out=bottom)
        np.multiply(right, self.fx, out=right)
        np.add(bottom, right, out=bottom)
        # result = top * (1 - fy) + bottom * fy
        np.multiply(top, self.omfy, out=top)
        np.multiply(bottom, self.fy, out=bottom)
        np.add(top, bottom, out=out)


# ---------------------------------------------------------------------------
# integral images (zero-border buffers in the arena)


class ReferenceIntegralPlan(IntegralPlan):
    """Integral + squared integral into padded arena buffers."""

    def __init__(
        self, height: int, width: int, *, arena: ScratchArena | None = None
    ) -> None:
        if height <= 0 or width <= 0:
            raise ConfigurationError("image dimensions must be positive")
        self.height = height
        self.width = width
        self._arena = arena if arena is not None else ScratchArena()

    def compute(self, image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Integrals of a ``(..., h, w)`` stack into ``(..., h+1, w+1)``
        arena buffers, lane by lane."""
        image = np.asarray(image)
        shape = image.shape[:-2] + (self.height + 1, self.width + 1)
        take = self._arena.take
        ii = take("integral.ii", shape, np.float64)
        sqii = take("integral.sqii", shape, np.float64)
        for lane, lane_ii, lane_sqii in zip(_lanes(image), _lanes(ii), _lanes(sqii)):
            self._integrate(lane, lane_ii, lane_sqii)
        return ii, sqii

    def _integrate(self, image: np.ndarray, ii: np.ndarray, sqii: np.ndarray) -> None:
        """The per-frame body: one ``(h, w)`` frame's padded integrals."""
        # the buffers are shared across level shapes, so the zero border
        # of this shape may hold another level's sums: clear it every call
        for padded in (ii, sqii):
            padded[0, :] = 0.0
            padded[1:, 0] = 0.0
        # both scans run in place in the padded interior: the float64
        # cast (exact) and the float64 square are written straight there
        body, sqbody = ii[1:, 1:], sqii[1:, 1:]
        body[...] = image
        np.cumsum(body, axis=0, out=body)
        np.cumsum(body, axis=1, out=body)
        np.multiply(image, image, dtype=np.float64, out=sqbody)
        np.cumsum(sqbody, axis=0, out=sqbody)
        np.cumsum(sqbody, axis=1, out=sqbody)


# ---------------------------------------------------------------------------
# cascade evaluation (dense grid stages, then sparse survivor gathers)


class _DenseScratch(NamedTuple):
    """Arena grids of the dense stages, bound once per :meth:`evaluate`.

    ``tmp`` holds each rectangle's value, then the classifier's
    threshold and vote: it is dead once the rectangles are summed.
    """

    tmp: np.ndarray
    vals: np.ndarray
    sums: np.ndarray
    mask: np.ndarray


class _SparseScratch(NamedTuple):
    """Arena vectors of the sparse stages, sliced to the survivor count
    (``ts`` holds the sigma-scaled threshold, then the vote)."""

    base: np.ndarray
    t1: np.ndarray
    vals: np.ndarray
    ts: np.ndarray
    sums: np.ndarray
    mask: np.ndarray


class ReferenceCascadeEvaluator(CascadeEvaluator):
    """The engine's dense/sparse stage evaluation over arena scratch."""

    def __init__(
        self,
        cascade,
        mapping,
        *,
        sparse_threshold: float | None = None,
        arena: ScratchArena | None = None,
    ) -> None:
        self._compiled = compile_cascade(cascade)
        self._plan = self._compiled.stages
        self._n_stages = cascade.num_stages
        self._mapping = mapping
        if sparse_threshold is None:
            sparse_threshold = self._default_sparse_threshold()
        self._sparse_threshold = sparse_threshold
        ay, ax = mapping.anchors_y, mapping.anchors_x
        self._ay, self._ax = ay, ax
        self._window = mapping.window
        self._stride = mapping.level_width + 1
        self._arena = arena if arena is not None else ScratchArena()
        #: sparse-stage capacity: bounded by the dense->sparse switch point
        self._nmax = int(max(64, sparse_threshold * ay * ax)) + 1

    def _default_sparse_threshold(self) -> float:
        # read at construction time so tests can monkeypatch the module global
        return SPARSE_THRESHOLD

    def _corners(self) -> tuple[np.ndarray, np.ndarray]:
        """``(R, 4)`` corner rows and columns in the order the sparse stage
        reads them: the compiled order, where each classifier's
        rectangles are one slice."""
        return self._compiled.rows, self._compiled.cols

    def _bind_offsets(self) -> np.ndarray:
        """This level's ``(R, 4)`` flat corner offsets, ``rows * stride +
        cols``, in the arena buffer ``cascade.offsets``.

        Bound once per kernel call, so no offset table outlives it.
        """
        rows, cols = self._corners()
        offsets = self._arena.take("cascade.offsets", rows.shape, np.int64)
        np.multiply(rows, self._stride, out=offsets)
        np.add(offsets, cols, out=offsets)
        return offsets

    def _survivors(self, alive: np.ndarray):
        """The sparse stages' survivor set of an ``alive`` grid."""
        return np.nonzero(alive)

    def _grid(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """Arena buffer ``cascade.<name>`` as ``shape``: one anchor grid, or
        a stack of them."""
        return self._arena.take(f"cascade.{name}", shape, dtype)

    def _dense_scratch(self, shape) -> _DenseScratch:
        grid = self._grid
        return _DenseScratch(
            tmp=grid("tmp", shape),
            vals=grid("vals", shape),
            sums=grid("sums", shape),
            mask=grid("mask", shape, bool),
        )

    def _ensure_sparse_capacity(self, n: int) -> _SparseScratch:
        """The sparse-stage scratch, bound for at least ``n`` survivors.

        Never smaller than the dense->sparse switch point; masked
        evaluation may seed more survivors than that switch ever would,
        and the arena regrows its buffers to fit them.
        """
        n = max(n, self._nmax)
        take = self._arena.take
        return _SparseScratch(
            base=take("cascade.s_base", n, np.int64),
            t1=take("cascade.s_t1", n, np.float64),
            vals=take("cascade.s_vals", n, np.float64),
            ts=take("cascade.s_ts", n, np.float64),
            sums=take("cascade.s_sums", n, np.float64),
            mask=take("cascade.s_mask", n, bool),
        )

    def window_sigma(self, ii: np.ndarray, sqii: np.ndarray) -> np.ndarray:
        """Window sums and variance normalisation (identical op order).

        This is the :meth:`evaluate` preamble verbatim — the fast path's
        variance screen calls it on its own, and :meth:`evaluate` runs
        the same body per lane, so both read bit-identical sigma grids.
        """
        sigma = np.empty((self._ay, self._ax), dtype=np.float64)
        self._window_sigma(ii, sqii, sigma)
        return sigma

    def _window_sigma(self, ii: np.ndarray, sqii: np.ndarray, sigma: np.ndarray) -> None:
        """The per-frame preamble into ``sigma``.  It works in two of the
        dense grids, in place: window sum -> mean in ``tmp``, window
        square sum -> variance in ``vals``."""
        w = self._window
        area = WINDOW_AREA
        grid = (self._ay, self._ax)
        mean, ga = self._grid("tmp", grid), self._grid("vals", grid)
        np.subtract(ii[w:, w:], ii[:-w, w:], out=mean)
        np.subtract(mean, ii[w:, :-w], out=mean)
        np.add(mean, ii[:-w, :-w], out=mean)
        np.subtract(sqii[w:, w:], sqii[:-w, w:], out=ga)
        np.subtract(ga, sqii[w:, :-w], out=ga)
        np.add(ga, sqii[:-w, :-w], out=ga)
        np.divide(mean, area, out=mean)
        np.divide(ga, area, out=ga)
        np.multiply(mean, mean, out=mean)
        np.subtract(ga, mean, out=ga)
        np.maximum(ga, 1.0, out=ga)
        np.sqrt(ga, out=sigma)

    def evaluate(self, ii: np.ndarray, sqii: np.ndarray) -> CascadeMaps:
        """Walk a ``(..., h+1, w+1)`` integral stack through the cascade,
        lane by lane, into freshly allocated ``(..., ay, ax)`` maps."""
        ii, sqii = np.asarray(ii), np.asarray(sqii)
        shape = ii.shape[:-2] + (self._ay, self._ax)
        depth = np.zeros(shape, dtype=np.int32)
        margin = np.zeros(shape, dtype=np.float64)
        sigma = np.empty(shape, dtype=np.float64)
        for lane in zip(*map(_lanes, (ii, sqii, depth, margin, sigma))):
            lane_ii, lane_sqii, lane_depth, lane_margin, lane_sigma = lane
            self._window_sigma(lane_ii, lane_sqii, lane_sigma)
            self._walk(lane_ii, lane_sigma, lane_depth, lane_margin)
        return CascadeMaps(depth_map=depth, margin_map=margin, sigma_map=sigma)

    def _walk(self, ii, sigma, depth, margin) -> None:
        """The stage walk over ``depth``'s anchors: dense stages over the
        whole grid (or stack of grids) while many anchors live, then
        sparse gathers of the survivors."""
        shape = depth.shape
        dense = self._dense_scratch(shape)
        alive = self._grid("alive", shape, bool)
        alive.fill(True)
        passed = self._grid("passed", shape, bool)
        sparse = None
        total = depth.size
        flat = ii.reshape(-1)
        offsets = self._bind_offsets()

        for stage_idx, stage in enumerate(self._plan):
            if sparse is None:
                live = int(alive.sum())
                if live == 0:
                    break
                if live < max(64, self._sparse_threshold * total):
                    sparse = self._survivors(alive)
            if sparse is not None:
                sparse = self._sparse_stage(
                    stage_idx, stage, flat, offsets, sigma, depth, margin, sparse
                )
                if sparse is None:
                    break
            else:
                self._dense_stage(stage, ii, sigma, depth, margin, alive, passed, dense)
                alive, passed = passed, alive

    def evaluate_masked(
        self,
        ii: np.ndarray,
        sqii: np.ndarray,
        active: np.ndarray,
        *,
        sigma: np.ndarray | None = None,
    ) -> CascadeMaps:
        """Walk only the ``active`` anchors through the cascade.

        Runs the sparse survivor path from stage 0, seeded with the
        active set instead of the whole grid: each active anchor reads
        the same float64 integral values a dense slice would, in the
        same ``((A - B) - C) + D`` order, so its depth/margin match a
        full :meth:`evaluate` bit-for-bit.  Inactive anchors stay at
        depth 0 / margin 0 — that is the fast path's pruning contract.
        """
        if sigma is None:
            sigma = self.window_sigma(ii, sqii)
        ay, ax = self._ay, self._ax
        depth = np.zeros((ay, ax), dtype=np.int32)
        margin = np.zeros((ay, ax), dtype=np.float64)
        flat = ii.reshape(-1)
        offsets = self._bind_offsets()
        sparse = self._survivors(active)
        for stage_idx, stage in enumerate(self._plan):
            sparse = self._sparse_stage(
                stage_idx, stage, flat, offsets, sigma, depth, margin, sparse
            )
            if sparse is None:
                break
        return CascadeMaps(depth_map=depth, margin_map=margin, sigma_map=sigma)

    def _dense_stage(self, stage, ii, sigma, depth, margin, alive, passed, scratch) -> None:
        ay, ax = self._ay, self._ax
        tmp, vals, sums, mask = scratch
        sums.fill(0.0)
        for cl in stage.classifiers:
            vals.fill(0.0)
            for x0, y0, x1, y1, wt in cl.rects:
                # out += wt * (A - B - C + D), replayed in the same order
                np.subtract(
                    ii[y1 : y1 + ay, x1 : x1 + ax],
                    ii[y0 : y0 + ay, x1 : x1 + ax],
                    out=tmp,
                )
                np.subtract(tmp, ii[y1 : y1 + ay, x0 : x0 + ax], out=tmp)
                np.add(tmp, ii[y0 : y0 + ay, x0 : x0 + ax], out=tmp)
                np.multiply(tmp, wt, out=tmp)
                np.add(vals, tmp, out=vals)
            # threshold and vote in ``tmp``, dead once the rectangles are summed
            np.multiply(sigma, cl.threshold, out=tmp)
            np.less_equal(vals, tmp, out=mask)
            np.copyto(tmp, cl.right)
            np.copyto(tmp, cl.left, where=mask)
            np.add(sums, tmp, out=sums)
        np.subtract(sums, stage.threshold, out=tmp)
        margin[alive] = tmp[alive]
        np.greater_equal(sums, stage.threshold, out=mask)
        np.logical_and(alive, mask, out=passed)
        depth[passed] += 1

    def _sparse_stage(self, stage_idx, stage, flat, offsets, sigma, depth, margin, sparse):
        ys, xs = sparse
        if ys.size == 0:
            return None
        n = ys.size
        sig = sigma[ys, xs]
        base, t1, vals, ts, sums, mask = (
            buf[:n] for buf in self._ensure_sparse_capacity(n)
        )
        np.multiply(ys, self._stride, out=base)
        np.add(base, xs, out=base)
        sums.fill(0.0)
        for cl in stage.classifiers:
            # gather all corners of all rects at once: (n_rects, 4, n)
            corners = flat.take(offsets[cl.start : cl.end, :, np.newaxis] + base)
            vals.fill(0.0)
            for r, (_x0, _y0, _x1, _y1, wt) in enumerate(cl.rects):
                g = corners[r]
                np.subtract(g[0], g[1], out=t1)
                np.subtract(t1, g[2], out=t1)
                np.add(t1, g[3], out=t1)
                np.multiply(t1, wt, out=t1)
                np.add(vals, t1, out=vals)
            np.multiply(sig, cl.threshold, out=ts)
            np.less_equal(vals, ts, out=mask)
            np.copyto(ts, cl.right)
            np.copyto(ts, cl.left, where=mask)
            np.add(sums, ts, out=sums)
        np.subtract(sums, stage.threshold, out=t1)
        margin[ys, xs] = t1
        np.greater_equal(sums, stage.threshold, out=mask)
        ys_next = ys[mask]
        xs_next = xs[mask]
        depth[ys_next, xs_next] += 1
        return ys_next, xs_next


# ---------------------------------------------------------------------------
# the backend object


class ReferenceBackend(ComputeBackend):
    """The NumPy oracle: delegates to the original :mod:`repro.image` code."""

    name = "reference"

    def antialias(self, image: np.ndarray, scale: float) -> np.ndarray:
        from repro.image.filtering import antialias

        return antialias(image, scale)

    def downscale(self, image: np.ndarray, out_width: int, out_height: int) -> np.ndarray:
        # the original build_pyramid path: a texture object per resample
        from repro.image.pyramid import downscale
        from repro.image.texture import Texture2D

        return downscale(Texture2D(image), out_width, out_height)

    def make_bilinear_plan(
        self, src_h: int, src_w: int, dst_h: int, dst_w: int, *, arena=None
    ) -> ReferenceBilinearPlan:
        return ReferenceBilinearPlan(src_h, src_w, dst_h, dst_w, arena=arena)

    def integral_image(self, image: np.ndarray) -> np.ndarray:
        from repro.image.integral import integral_image

        return integral_image(image)

    def squared_integral_image(self, image: np.ndarray) -> np.ndarray:
        from repro.image.integral import squared_integral_image

        return squared_integral_image(image)

    def transpose(self, matrix: np.ndarray) -> np.ndarray:
        from repro.image.transpose import tiled_transpose

        return tiled_transpose(matrix)

    def make_integral_plan(
        self, height: int, width: int, *, arena=None
    ) -> ReferenceIntegralPlan:
        return ReferenceIntegralPlan(height, width, arena=arena)

    def make_cascade_evaluator(
        self, cascade, mapping, *, sparse_threshold: float | None = None, arena=None
    ) -> ReferenceCascadeEvaluator:
        return ReferenceCascadeEvaluator(
            cascade, mapping, sparse_threshold=sparse_threshold, arena=arena
        )
