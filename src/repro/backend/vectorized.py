"""The ``vectorized`` backend: stacked kernels, identical bits.

Each plan has one body, and it runs over a whole ``(..., h, w)`` frame
stack: a single frame is a stack of one, and a fused device batch of N
frames runs every kernel once, in arena scratch sized to the stack.  The
reference backend, the oracle, runs its per-frame bodies lane by lane
instead.  Two execution-strategy changes over :class:`~repro.backend.
reference.ReferenceBackend`, neither of which may move a single output
bit:

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
    """The reference gather over a whole ``(..., src_h, src_w)`` stack.

    One stacked row gather and two column gathers per source row, in
    arena scratch sized to the stack: the lerp is per-pixel and keeps
    the reference op order, so every lane is bit-identical to the
    reference resampling that frame alone.
    """

    def apply(self, src: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        src = np.asarray(src)
        lanes = src.shape[:-2]
        take = self._arena.take
        rows = take("bilinear.rows", lanes + self._panel, np.float32)
        top, bottom, right = (
            take(f"bilinear.g{i}", lanes + self._grid, np.float32) for i in range(3)
        )
        # top = d[y0, x0] * (1 - fx) + d[y0, x1] * fx  (float32, as tex2D)
        np.take(src, self.y0, axis=-2, out=rows)
        np.take(rows, self.x0, axis=-1, out=top)
        np.take(rows, self.x1, axis=-1, out=right)
        np.multiply(top, self.omfx, out=top)
        np.multiply(right, self.fx, out=right)
        np.add(top, right, out=top)
        # bottom = d[y1, x0] * (1 - fx) + d[y1, x1] * fx
        np.take(src, self.y1, axis=-2, out=rows)
        np.take(rows, self.x0, axis=-1, out=bottom)
        np.take(rows, self.x1, axis=-1, out=right)
        np.multiply(bottom, self.omfx, out=bottom)
        np.multiply(right, self.fx, out=right)
        np.add(bottom, right, out=bottom)
        # result = top * (1 - fy) + bottom * fy
        np.multiply(top, self.omfy, out=top)
        np.multiply(bottom, self.fy, out=bottom)
        if out is None:
            return np.add(top, bottom)
        np.add(top, bottom, out=out)
        return out


class VectorizedIntegralPlan(ReferenceIntegralPlan):
    """One scan per axis over a whole ``(..., h, w)`` stack.

    ``cumsum`` runs independently along each lane, so every lane equals
    the reference integrals of that frame bit for bit.  The stacks live
    in the arena, like the reference's, overwritten by the next call.
    """

    def compute(self, image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        image = np.asarray(image)
        shape = image.shape[:-2] + (self.height + 1, self.width + 1)
        take = self._arena.take
        ii = take("integral.ii", shape, np.float64)
        sqii = take("integral.sqii", shape, np.float64)
        # the buffers are shared across level shapes: re-zero the border
        for padded in (ii, sqii):
            padded[..., 0, :] = 0.0
            padded[..., 1:, 0] = 0.0
        # cast and square straight into the padded interiors, then scan
        # them in place, with no float64 staging stacks
        body, sqbody = ii[..., 1:, 1:], sqii[..., 1:, 1:]
        body[...] = image
        np.cumsum(body, axis=-2, out=body)
        np.cumsum(body, axis=-1, out=body)
        np.multiply(image, image, dtype=np.float64, out=sqbody)
        np.cumsum(sqbody, axis=-2, out=sqbody)
        np.cumsum(sqbody, axis=-1, out=sqbody)
        return ii, sqii


class VectorizedCascadeEvaluator(ReferenceCascadeEvaluator):
    """One cascade walk over a whole integral stack (see module doc).

    Dense stages are elementwise over the ``(..., ay, ax)`` grids, sparse
    stages gather the survivors of every lane through one flattened view
    of the stacked integrals, and all the scratch is the arena's, sized
    to the stack.  The only coupling between lanes is the dense->sparse
    switch decision, taken once for the stack — and the switch point is
    bit-neutral by contract, so every lane matches the reference walk of
    that frame alone.  The sigma preamble and the dense stage are this
    backend's own (they differ from the reference's only in taking
    stacks), so the per-frame oracle checks them at every lane count.
    """

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

    def evaluate(self, ii: np.ndarray, sqii: np.ndarray) -> CascadeMaps:
        ii = np.ascontiguousarray(ii)
        sigma = self.window_sigma(ii, sqii)
        depth = np.zeros(sigma.shape, dtype=np.int32)
        margin = np.zeros(sigma.shape, dtype=np.float64)
        self._walk(ii, sigma, depth, margin)
        return CascadeMaps(depth_map=depth, margin_map=margin, sigma_map=sigma)

    def window_sigma(self, ii: np.ndarray, sqii: np.ndarray) -> np.ndarray:
        """The reference preamble over a stack, same op order per lane, in
        the ``tmp`` and ``vals`` grids."""
        w = self._window
        area = WINDOW_AREA
        shape = ii.shape[:-2] + (self._ay, self._ax)
        mean, ga = self._grid("tmp", shape), self._grid("vals", shape)
        np.subtract(ii[..., w:, w:], ii[..., :-w, w:], out=mean)
        np.subtract(mean, ii[..., w:, :-w], out=mean)
        np.add(mean, ii[..., :-w, :-w], out=mean)
        np.subtract(sqii[..., w:, w:], sqii[..., :-w, w:], out=ga)
        np.subtract(ga, sqii[..., w:, :-w], out=ga)
        np.add(ga, sqii[..., :-w, :-w], out=ga)
        np.divide(mean, area, out=mean)
        np.divide(ga, area, out=ga)
        np.multiply(mean, mean, out=mean)
        np.subtract(ga, mean, out=ga)
        np.maximum(ga, 1.0, out=ga)
        return np.sqrt(ga)

    def _dense_stage(self, stage, ii, sigma, depth, margin, alive, passed, scratch) -> None:
        """The reference dense stage over a stack of anchor grids."""
        ay, ax = self._ay, self._ax
        tmp, vals, sums, mask = scratch
        sums.fill(0.0)
        for cl in stage.classifiers:
            vals.fill(0.0)
            for x0, y0, x1, y1, wt in cl.rects:
                np.subtract(
                    ii[..., y1 : y1 + ay, x1 : x1 + ax],
                    ii[..., y0 : y0 + ay, x1 : x1 + ax],
                    out=tmp,
                )
                np.subtract(tmp, ii[..., y1 : y1 + ay, x0 : x0 + ax], out=tmp)
                np.add(tmp, ii[..., y0 : y0 + ay, x0 : x0 + ax], out=tmp)
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
    """Same one-shot primitives, stacked plans and cascade evaluation."""

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
