"""The ``vectorized`` backend: batched cascade evaluation, identical bits.

Two execution-strategy changes over :class:`~repro.backend.reference.
ReferenceBackend`, neither of which may move a single output bit:

* the dense->sparse switch happens much earlier (25% of anchors alive
  instead of 4%), so mid-cascade stages run on gathered survivors instead
  of full grids — most stages touch a fraction of the elements;
* a sparse stage is one *rectangle group* of the compiled cascade
  (:attr:`~repro.backend.compiled.CompiledCascade.layout`) and costs a
  fixed number of array ops per chunk of survivors, whatever its
  classifier count: one corner gather, the corner combine, at most three
  slot adds, one threshold multiply, compare and select, and one
  accumulate.  Chunks are sized so a gather and its index stay inside
  ``_GROUP_ELEMS`` however many survivors are alive, and the corner
  offsets are bound into one arena buffer per kernel call, so the
  kernel's memory follows the work in flight, not the level count.

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

#: per-gather element budget of one survivor chunk's ``(4, R_s, m)`` corner
#: block: the gather and its int64 index take ``2 * 8 * _GROUP_ELEMS`` bytes,
#: 1 MiB, which still fits a core's L2 (the sweep is in DESIGN.md §9)
_GROUP_ELEMS = 1 << 16


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
        # as compute(): cast and square straight into the padded interiors,
        # then scan them in place, with no float64 staging stacks
        body, sqbody = iis[:, 1:, 1:], sqiis[:, 1:, 1:]
        body[...] = images
        np.cumsum(body, axis=1, out=body)
        np.cumsum(body, axis=2, out=body)
        np.multiply(images, images, dtype=np.float64, out=sqbody)
        np.cumsum(sqbody, axis=1, out=sqbody)
        np.cumsum(sqbody, axis=2, out=sqbody)
        return iis, sqiis


class VectorizedCascadeEvaluator(ReferenceCascadeEvaluator):
    """Reference evaluation with batched sparse gathers (see module doc)."""

    def __init__(
        self, cascade, mapping, *, sparse_threshold: float | None = None, arena=None
    ) -> None:
        super().__init__(cascade, mapping, sparse_threshold=sparse_threshold, arena=arena)
        self._ii_shape = (mapping.level_height + 1, mapping.level_width + 1)

    def _default_sparse_threshold(self) -> float:
        return VEC_SPARSE_THRESHOLD

    def _corners(self) -> tuple[np.ndarray, np.ndarray]:
        layout = self._compiled.layout
        return layout.rows, layout.cols

    def _survivors(self, alive: np.ndarray) -> np.ndarray:
        # flat anchor indices: one int64 per survivor, compacted in place
        return np.flatnonzero(alive)

    def _sparse_stage(self, stage_idx, stage, flat, offsets, sigma, depth, margin, sparse):
        """One stage over the survivors ``sparse``, a fixed number of array
        ops per chunk of them, whatever the stage's classifier count.

        ``sparse`` holds flat indices into ``depth`` — one anchor grid, or
        a stack of them over the flattened stacked integrals ``flat``.
        The survivors are walked in chunks whose ``(4, R_s, m)`` corner
        gather (and its index) stays inside ``_GROUP_ELEMS``; the
        arithmetic is per survivor, so chunking moves no bit.  Survivors
        of the stage are compacted into the front of ``sparse``, which
        is returned shortened.
        """
        n = sparse.size
        if n == 0:
            return None
        group = self._compiled.layout.stages[stage_idx]
        # (4, R_s, 1): every corner offset of the stage, corner-major
        stage_offsets = offsets[group.start : group.end].T[:, :, np.newaxis]
        shape = depth.shape
        ii_shape = shape[:-2] + self._ii_shape
        depth, margin, sigma = depth.reshape(-1), margin.reshape(-1), sigma.reshape(-1)
        chunk = max(1, _GROUP_ELEMS // (4 * (group.end - group.start)))
        kept = 0
        for i in range(0, n, chunk):
            anchors = sparse[i : i + chunk]
            # flat index of each survivor's window origin in the integral(s)
            base = np.ravel_multi_index(np.unravel_index(anchors, shape), ii_shape)
            sums = _stage_sums(group, flat, stage_offsets, base, sigma[anchors])
            margin[anchors] = sums - stage.threshold
            alive = anchors[sums >= stage.threshold]
            depth[alive] += 1
            # chunks are read before they are overwritten: kept <= i
            sparse[kept : kept + alive.size] = alive
            kept += alive.size
        return sparse[:kept]

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
        sparse = None
        total = n * ay * ax
        flat = iis.reshape(-1)
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


def _stage_sums(group, flat, stage_offsets, base, sig) -> np.ndarray:
    """Stage sums of one survivor chunk: ``base`` window origins in
    ``flat``, ``sig`` their sigmas.

    Its corner gather and every temporary die on return, so one chunk's
    ``(4, R_s, m)`` block is never alive next to the next one's.
    """
    c, m = group.n, base.size
    # one gather of every corner of the stage: (4, R_s, m); the index is
    # built C-ordered, or take() would copy it once more
    corners = flat.take(np.add(stage_offsets, base, order="C"))
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
    # the (C, m) temporaries live in the dead B/C/D rows, the mask in the
    # dead slot rows (every feature has two rects or more)
    dead = corners[1:].reshape(-1)
    wv = dead[: c * m].reshape(c, m)
    acc = dead[c * m : (2 * c + 1) * m].reshape(c + 1, m)
    mask = rv[c:].reshape(-1).view(np.bool_)[: c * m].reshape(c, m)
    np.multiply(sig, group.threshold, out=wv)
    np.less_equal(vals, wv, out=mask)
    np.copyto(wv, group.right)
    np.copyto(wv, group.left, where=mask)
    # the stage sum in cascade order, one classifier after another:
    # accumulate (never reduce) over the rows [0; wv[inverse]], the zero
    # row being the reference's sums = 0 start (0.0 + -0.0 is +0.0)
    acc[0] = 0.0
    np.take(wv, group.inverse, axis=0, out=acc[1:], mode="clip")
    np.add.accumulate(acc, axis=0, out=acc)
    return acc[c].copy()


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
