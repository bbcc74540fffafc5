"""The ``vectorized`` backend: batched cascade evaluation, identical bits.

Two execution-strategy changes over :class:`~repro.backend.reference.
ReferenceBackend`, neither of which may move a single output bit:

* the dense->sparse switch happens much earlier (25% of anchors alive
  instead of 4%), so mid-cascade stages run on gathered survivors instead
  of full grids — most stages touch a fraction of the elements;
* a sparse stage costs a fixed number of array ops per *rectangle group*
  of the compiled cascade (:meth:`~repro.backend.compiled.
  CompiledCascade.layout`), whatever its classifier count: one corner
  gather, the corner combine, at most three slot adds, one threshold
  multiply, compare and select, and one accumulate.

Bit-identity holds because every elementwise operation keeps the
reference order — ``((A - B) - C) + D``, then ``* weight``, then a
sequential per-rectangle sum, then a sequential per-classifier stage sum
(``np.add.accumulate``; ``reduce`` and ``reduceat`` may pair the terms
differently) — and the switch point itself is bit-neutral (dense slices
and sparse gathers read the same float64 values).  The cross-backend
oracle tests and ``tests/backend/test_kernel_identity.py`` pin this.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import WINDOW_AREA, CascadeMaps
from repro.backend.compiled import GroupLayout
from repro.backend.reference import (
    ReferenceBackend,
    ReferenceBilinearPlan,
    ReferenceCascadeEvaluator,
    ReferenceIntegralPlan,
)

__all__ = [
    "VEC_SPARSE_THRESHOLD",
    "VectorizedBilinearPlan",
    "VectorizedIntegralPlan",
    "VectorizedCascadeEvaluator",
    "VectorizedBackend",
]

#: dense->sparse switch point for this backend (fraction of anchors alive);
#: deliberately much higher than the reference 4% — sparse gathers are cheap
#: here, so most of the cascade runs on survivors only
VEC_SPARSE_THRESHOLD = 0.25

#: per-gather element budget for one batched corner block ``(R, 4, n)``;
#: keeps a single ``take`` under ~16 MiB of float64 even on large levels
_GROUP_ELEMS = 1 << 21


class VectorizedBilinearPlan(ReferenceBilinearPlan):
    """Reference bilinear gather, plus a fused multi-frame batch path.

    ``apply_batch`` resamples all N frames with one stacked gather per
    corner: the lerp is per-pixel, so every lane is bit-identical to
    :meth:`apply` on that frame alone.
    """

    def apply_batch(self, srcs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        srcs = np.asarray(srcs, dtype=np.float32)
        rows0 = np.take(srcs, self.y0, axis=1)
        rows1 = np.take(srcs, self.y1, axis=1)
        g00 = np.take(rows0, self.x0, axis=2)
        g01 = np.take(rows0, self.x1, axis=2)
        g10 = np.take(rows1, self.x0, axis=2)
        g11 = np.take(rows1, self.x1, axis=2)
        # same op order as apply(): top/bottom lerps then the row lerp
        np.multiply(g00, self.omfx, out=g00)
        np.multiply(g01, self.fx, out=g01)
        np.add(g00, g01, out=g00)
        np.multiply(g10, self.omfx, out=g10)
        np.multiply(g11, self.fx, out=g11)
        np.add(g10, g11, out=g10)
        np.multiply(g00, self.omfy, out=g00)
        np.multiply(g10, self.fy, out=g10)
        if out is None:
            return np.add(g00, g10)
        np.add(g00, g10, out=out)
        return out


class VectorizedIntegralPlan(ReferenceIntegralPlan):
    """Reference integrals, plus one fused scan over an (n, h, w) stack.

    ``cumsum`` runs independently along each lane of the stacked axis,
    so every lane equals the per-frame :meth:`compute` bit-for-bit.  The
    returned stacks are freshly allocated (they outlive the next call),
    unlike the arena-backed single-frame buffers.
    """

    def compute_batch(self, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        images = np.asarray(images)
        n = images.shape[0]
        iis = np.zeros((n, self.height + 1, self.width + 1), dtype=np.float64)
        sqiis = np.zeros_like(iis)
        img64 = images.astype(np.float64)
        np.cumsum(img64, axis=1, out=img64)
        np.cumsum(img64, axis=2, out=iis[:, 1:, 1:])
        sq64 = np.asarray(images, dtype=np.float64)
        np.multiply(sq64, sq64, out=sq64)
        np.cumsum(sq64, axis=1, out=sq64)
        np.cumsum(sq64, axis=2, out=sqiis[:, 1:, 1:])
        return iis, sqiis


class VectorizedCascadeEvaluator(ReferenceCascadeEvaluator):
    """Reference evaluation with batched sparse gathers (see module doc)."""

    def __init__(
        self, cascade, mapping, *, sparse_threshold: float | None = None, arena=None
    ) -> None:
        super().__init__(cascade, mapping, sparse_threshold=sparse_threshold, arena=arena)
        self._groups = self._layout().stages
        self._ii_shape = (mapping.level_height + 1, mapping.level_width + 1)

    def _default_sparse_threshold(self) -> float:
        return VEC_SPARSE_THRESHOLD

    def _layout(self) -> GroupLayout:
        # groups are capped so one (R, 4, nmax) corner gather stays inside
        # _GROUP_ELEMS; the layout depends on nothing else
        return self._compiled.layout(max(4, _GROUP_ELEMS // max(1, 4 * self._nmax)))

    def _rect_order(self):
        return self._layout().order

    def _sparse_stage(self, stage_idx, stage, flat, sigma, depth, margin, sparse):
        """One stage over the survivors ``sparse``: a fixed number of array
        ops per rectangle group, whatever its classifier count.

        ``sparse`` indexes the anchor grid, ``(ys, xs)``, or a stack of
        them, ``(fs, ys, xs)`` over the flattened stacked integrals.
        """
        n = sparse[0].size
        if n == 0:
            return None
        # flat index of each survivor's window origin in the integral(s)
        base = np.ravel_multi_index(sparse, depth.shape[:-2] + self._ii_shape)
        sig = sigma[sparse]
        sums = np.zeros(n, dtype=np.float64)
        offsets = self._offsets
        for group in self._groups[stage_idx]:
            c = group.n
            # one gather of every corner of the group, corner-major: (4, R_g, n)
            corners = flat.take(offsets[group.start : group.end].transpose(1, 0, 2) + base)
            # rv[r] = (((A - B) - C) + D) * weight, the reference op order
            rv = corners[0]
            np.subtract(rv, corners[1], out=rv)
            np.subtract(rv, corners[2], out=rv)
            np.add(rv, corners[3], out=rv)
            np.multiply(rv, group.weights, out=rv)
            # per-classifier sums, rect by rect: slot k is a prefix of rows
            vals = rv[:c]
            row = c
            for k in group.slots:
                np.add(vals[:k], rv[row : row + k], out=vals[:k])
                row += k
            # the (C, n) temporaries live in the dead B/C/D rows, the mask in
            # the dead slot rows (every feature has two rects or more)
            dead = corners[1:].reshape(-1)
            wv = dead[: c * n].reshape(c, n)
            acc = dead[c * n : (2 * c + 1) * n].reshape(c + 1, n)
            mask = rv[c:].reshape(-1).view(np.bool_)[: c * n].reshape(c, n)
            np.multiply(sig, group.threshold, out=wv)
            np.less_equal(vals, wv, out=mask)
            np.copyto(wv, group.right)
            np.copyto(wv, group.left, where=mask)
            # the stage sum in cascade order, one classifier after another:
            # accumulate (never reduce) over the rows [sums; wv[inverse]]
            acc[0] = sums
            np.take(wv, group.inverse, axis=0, out=acc[1:], mode="clip")
            np.add.accumulate(acc, axis=0, out=acc)
            np.copyto(sums, acc[c])
        margin[sparse] = sums - stage.threshold
        keep = sums >= stage.threshold
        survivors = tuple(ix[keep] for ix in sparse)
        depth[survivors] += 1
        return survivors

    # -- fused multi-frame evaluation ---------------------------------------
    #
    # One walk over the cascade for N same-geometry frames: dense stages
    # are elementwise over the (n, ay, ax) stack, sparse stages gather
    # survivors of every frame through one flattened view of the stacked
    # integrals.  The only cross-frame coupling is the dense->sparse
    # switch decision, which is taken once for the whole batch — and the
    # switch point is bit-neutral by contract, so every lane still
    # matches a solo :meth:`evaluate` bit-for-bit.

    def evaluate_batch(self, iis: np.ndarray, sqiis: np.ndarray) -> list[CascadeMaps]:
        iis = np.ascontiguousarray(iis)
        sqiis = np.asarray(sqiis)
        n = iis.shape[0]
        if n == 1:
            maps = self.evaluate(iis[0], sqiis[0])
            return [maps]
        ay, ax = self._ay, self._ax
        sigma = self._window_sigma_batch(iis, sqiis)

        depth = np.zeros((n, ay, ax), dtype=np.int32)
        margin = np.zeros((n, ay, ax), dtype=np.float64)
        alive = np.ones((n, ay, ax), dtype=bool)
        passed = np.empty((n, ay, ax), dtype=bool)
        sparse: tuple[np.ndarray, ...] | None = None
        total = n * ay * ax
        flat = iis.reshape(-1)

        for stage_idx, stage in enumerate(self._plan):
            if sparse is None:
                live = int(alive.sum())
                if live == 0:
                    break
                if live < max(64, self._sparse_threshold * total):
                    sparse = np.nonzero(alive)
            if sparse is not None:
                sparse = self._sparse_stage(stage_idx, stage, flat, sigma, depth, margin, sparse)
                if sparse is None:
                    break
            else:
                self._dense_stage_batch(stage, iis, sigma, depth, margin, alive, passed)
                alive, passed = passed, alive

        return [
            CascadeMaps(depth_map=depth[i], margin_map=margin[i], sigma_map=sigma[i])
            for i in range(n)
        ]

    def _window_sigma_batch(self, iis: np.ndarray, sqiis: np.ndarray) -> np.ndarray:
        """:meth:`window_sigma` over a frame stack, same op order per lane."""
        w = self._window
        area = WINDOW_AREA
        wsum = np.subtract(iis[:, w:, w:], iis[:, :-w, w:])
        np.subtract(wsum, iis[:, w:, :-w], out=wsum)
        np.add(wsum, iis[:, :-w, :-w], out=wsum)
        wsq = np.subtract(sqiis[:, w:, w:], sqiis[:, :-w, w:])
        np.subtract(wsq, sqiis[:, w:, :-w], out=wsq)
        np.add(wsq, sqiis[:, :-w, :-w], out=wsq)
        mean = np.divide(wsum, area)
        ga = np.divide(wsq, area)
        np.multiply(mean, mean, out=mean)
        np.subtract(ga, mean, out=ga)
        np.maximum(ga, 1.0, out=ga)
        return np.sqrt(ga)

    def _dense_stage_batch(self, stage, iis, sigma, depth, margin, alive, passed) -> None:
        ay, ax = self._ay, self._ax
        n = iis.shape[0]
        sums = np.zeros((n, ay, ax), dtype=np.float64)
        vals = np.empty((n, ay, ax), dtype=np.float64)
        tmp = np.empty((n, ay, ax), dtype=np.float64)
        ts = np.empty((n, ay, ax), dtype=np.float64)
        mask = np.empty((n, ay, ax), dtype=bool)
        for cl in stage.classifiers:
            vals.fill(0.0)
            for x0, y0, x1, y1, wt in cl.rects:
                np.subtract(
                    iis[:, y1 : y1 + ay, x1 : x1 + ax],
                    iis[:, y0 : y0 + ay, x1 : x1 + ax],
                    out=tmp,
                )
                np.subtract(tmp, iis[:, y1 : y1 + ay, x0 : x0 + ax], out=tmp)
                np.add(tmp, iis[:, y0 : y0 + ay, x0 : x0 + ax], out=tmp)
                np.multiply(tmp, wt, out=tmp)
                np.add(vals, tmp, out=vals)
            np.multiply(sigma, cl.threshold, out=ts)
            np.less_equal(vals, ts, out=mask)
            np.copyto(ts, cl.right)
            np.copyto(ts, cl.left, where=mask)
            np.add(sums, ts, out=sums)
        np.subtract(sums, stage.threshold, out=tmp)
        margin[alive] = tmp[alive]
        np.greater_equal(sums, stage.threshold, out=mask)
        np.logical_and(alive, mask, out=passed)
        depth[passed] += 1


class VectorizedBackend(ReferenceBackend):
    """Same pyramid/integral primitives, batched cascade evaluation."""

    name = "vectorized"

    def make_bilinear_plan(
        self, src_h: int, src_w: int, dst_h: int, dst_w: int, *, arena=None
    ) -> VectorizedBilinearPlan:
        return VectorizedBilinearPlan(src_h, src_w, dst_h, dst_w, arena=arena)

    def make_integral_plan(
        self, height: int, width: int, *, arena=None
    ) -> VectorizedIntegralPlan:
        return VectorizedIntegralPlan(height, width, arena=arena)

    def make_cascade_evaluator(
        self, cascade, mapping, *, sparse_threshold: float | None = None, arena=None
    ) -> VectorizedCascadeEvaluator:
        return VectorizedCascadeEvaluator(
            cascade, mapping, sparse_threshold=sparse_threshold, arena=arena
        )
