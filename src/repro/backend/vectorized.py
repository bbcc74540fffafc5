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
  accumulate.

One element budget, ``_GROUP_ELEMS``, sizes every grid-shaped scratch
buffer of a kernel call.  The sigma preamble and the dense stages walk
the whole lane stack in anchor-row chunks of at most that many anchors,
writing margins, passes and depths in place; a survivor chunk's corner
gather and its index stay inside it and live in the dense chunk slots,
dead once the walk turns sparse; and the corner offsets are bound into
one arena buffer per kernel call.  So the kernel's scratch follows the
budget, not the level size, the lane count or the level count.

Bit-identity holds because every elementwise operation keeps the
reference order — ``((A - B) - C) + D``, then ``* weight``, then a
sequential per-rectangle sum, then a sequential per-classifier stage sum
(``np.add.accumulate``; ``reduce`` and ``reduceat`` may pair the terms
differently) — the switch point itself is bit-neutral (dense slices and
sparse gathers read the same float64 values), and so is chunking: every
anchor goes through the same operations in the same order, whichever
chunk it falls in.  The cross-backend
oracle tests and ``tests/backend/test_kernel_identity.py`` pin this.
"""

from __future__ import annotations

import math

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

#: element budget of every grid-shaped scratch buffer of a kernel call: a
#: dense anchor-row chunk over all lanes, or one survivor chunk's
#: ``(4, R_s, m)`` corner gather and its int64 index, which take
#: ``2 * 8 * _GROUP_ELEMS`` bytes, 512 KiB (the sweep is in DESIGN.md §9)
_GROUP_ELEMS = 1 << 15


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

    Dense stages are elementwise over anchor-row chunks of the
    ``(..., ay, ax)`` grids, sparse stages gather the survivors of every
    lane through one flattened view of the stacked integrals, and all
    the scratch is the arena's, sized by ``_GROUP_ELEMS``.  The only
    coupling between lanes is the dense->sparse switch decision, taken
    once for the stack — and the switch point is bit-neutral by
    contract, so every lane matches the reference walk of that frame
    alone.  The sigma preamble and the dense stage are this backend's
    own (they differ from the reference's in taking stacks and walking
    chunks), so the per-frame oracle checks them at every lane count.
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

    def _row_chunks(self, shape) -> tuple[list[tuple[int, int]], int]:
        """``(first row, rows)`` of every anchor-row chunk of a ``shape``
        stack of anchor grids, and the elements of one chunk slot.

        A chunk is as many whole anchor rows of every lane as fit
        ``_GROUP_ELEMS`` (one row at least), so a slot holds the budget,
        or the whole stack when that is smaller, or one row of every
        lane when that is larger.
        """
        lanes = math.prod(shape[:-2])
        ay, ax = self._ay, self._ax
        rows = max(1, _GROUP_ELEMS // (lanes * ax))
        size = max(min(_GROUP_ELEMS, lanes * ay * ax), lanes * ax)
        return [(y, min(rows, ay - y)) for y in range(0, ay, rows)], size

    def _dense_scratch(self, shape):
        """The dense stages' four slots, flat and one chunk in size."""
        _, size = self._row_chunks(shape)
        return super()._dense_scratch(size)

    def _sparse_stage(self, stage_idx, stage, flat, offsets, sigma, depth, margin, sparse):
        """One stage over the survivors ``sparse``, a fixed number of array
        ops per chunk of them, whatever the stage's classifier count.

        ``sparse`` holds flat indices into ``depth`` — one anchor grid, or
        a stack of them over the flattened stacked integrals ``flat``.
        The survivors are walked in chunks whose ``(4, R_s, m)`` corner
        gather (and its index) stays inside ``_GROUP_ELEMS``; both live
        in dense slots, dead once the walk is sparse.  The arithmetic is
        per survivor, so chunking moves no bit.  Survivors of the stage
        are compacted into the front of ``sparse``, which is returned
        shortened.
        """
        n = sparse.size
        if n == 0:
            return None
        group = self._compiled.layout.stages[stage_idx]
        rects = group.end - group.start
        # (4, R_s, 1): every corner offset of the stage, corner-major
        stage_offsets = offsets[group.start : group.end].T[:, :, np.newaxis]
        shape = depth.shape
        ii_shape = shape[:-2] + self._ii_shape
        depth, margin, sigma = depth.reshape(-1), margin.reshape(-1), sigma.reshape(-1)
        chunk = max(1, _GROUP_ELEMS // (4 * rects))
        size = 4 * rects * min(chunk, n)
        index = self._grid("index", size, np.int64)
        gather = self._grid("gather", size)
        kept = 0
        for i in range(0, n, chunk):
            anchors = sparse[i : i + chunk]
            block = (4, rects, anchors.size)
            # flat index of each survivor's window origin in the integral(s)
            base = np.ravel_multi_index(np.unravel_index(anchors, shape), ii_shape)
            idx = index[: math.prod(block)].reshape(block)
            np.add(stage_offsets, base, out=idx)
            # one gather of every corner of the stage; "clip" (every index
            # is in range) keeps take() from buffering its output
            corners = gather[: idx.size].reshape(block)
            flat.take(idx, out=corners, mode="clip")
            sums = _stage_sums(group, corners, sigma[anchors])
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
        """The reference preamble over a stack, same op order per lane,
        chunk by chunk in the ``tmp`` and ``vals`` slots."""
        w = self._window
        area = WINDOW_AREA
        shape = ii.shape[:-2] + (self._ay, self._ax)
        chunks, size = self._row_chunks(shape)
        tmp, vals = self._grid("tmp", size), self._grid("vals", size)
        sigma = np.empty(shape, dtype=np.float64)
        for y, r in chunks:
            # window rows y..y+r: their top corners in rows ``top``, their
            # bottom corners ``w`` rows further down
            top, bottom = slice(y, y + r), slice(y + w, y + w + r)
            mean, ga = _head(tmp, shape, r), _head(vals, shape, r)
            np.subtract(ii[..., bottom, w:], ii[..., top, w:], out=mean)
            np.subtract(mean, ii[..., bottom, :-w], out=mean)
            np.add(mean, ii[..., top, :-w], out=mean)
            np.subtract(sqii[..., bottom, w:], sqii[..., top, w:], out=ga)
            np.subtract(ga, sqii[..., bottom, :-w], out=ga)
            np.add(ga, sqii[..., top, :-w], out=ga)
            np.divide(mean, area, out=mean)
            np.divide(ga, area, out=ga)
            np.multiply(mean, mean, out=mean)
            np.subtract(ga, mean, out=ga)
            np.maximum(ga, 1.0, out=ga)
            np.sqrt(ga, out=sigma[..., top, :])
        return sigma

    def _dense_stage(self, stage, ii, sigma, depth, margin, alive, passed, scratch) -> None:
        """The reference dense stage over a stack of anchor grids, one
        anchor-row chunk at a time in the flat ``scratch`` slots.

        Margins, passes and depths are written in place, with no
        boolean-index gathers.
        """
        ax = self._ax
        shape = depth.shape
        chunks, _ = self._row_chunks(shape)
        for y, r in chunks:
            tmp, vals, sums, mask = (_head(buf, shape, r) for buf in scratch)
            rows = (..., slice(y, y + r), slice(None))
            sums.fill(0.0)
            for cl in stage.classifiers:
                vals.fill(0.0)
                for x0, y0, x1, y1, wt in cl.rects:
                    a, b = y + y1, y + y0
                    np.subtract(
                        ii[..., a : a + r, x1 : x1 + ax],
                        ii[..., b : b + r, x1 : x1 + ax],
                        out=tmp,
                    )
                    np.subtract(tmp, ii[..., a : a + r, x0 : x0 + ax], out=tmp)
                    np.add(tmp, ii[..., b : b + r, x0 : x0 + ax], out=tmp)
                    np.multiply(tmp, wt, out=tmp)
                    np.add(vals, tmp, out=vals)
                # threshold and vote in ``tmp``, dead once the rectangles are summed
                np.multiply(sigma[rows], cl.threshold, out=tmp)
                np.less_equal(vals, tmp, out=mask)
                np.copyto(tmp, cl.right)
                np.copyto(tmp, cl.left, where=mask)
                np.add(sums, tmp, out=sums)
            np.subtract(sums, stage.threshold, out=tmp)
            np.copyto(margin[rows], tmp, where=alive[rows])
            np.greater_equal(sums, stage.threshold, out=mask)
            np.logical_and(alive[rows], mask, out=passed[rows])
            np.add(depth[rows], passed[rows], out=depth[rows])


def _head(buf: np.ndarray, shape, rows: int) -> np.ndarray:
    """Flat slot ``buf`` as one ``(..., rows, ax)`` chunk of a ``shape``
    stack of anchor grids (a view of its first elements)."""
    chunk = shape[:-2] + (rows, shape[-1])
    return buf[: math.prod(chunk)].reshape(chunk)


def _stage_sums(group, corners, sig) -> np.ndarray:
    """Stage sums of one survivor chunk from its ``(4, R_s, m)`` corner
    gather ``corners`` and ``sig``, the survivors' sigmas.

    Every temporary lives in the gather's dead rows, and so do the
    returned sums: they are read before the next chunk's gather.
    """
    c, m = group.n, sig.size
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
    return acc[c]


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
