"""Per-warp reductions shared by every launch builder that costs the cascade kernel.

The timing layer prices a block by its warps' deepest lanes (SIMT: a warp
keeps executing a stage while *any* lane is alive).  :func:`warp_extremes`
takes each warp's max and min over two block-padded per-anchor grids for
:mod:`repro.detect.kernels` and :mod:`repro.detect.soft_kernel`, folding
rows in the grids themselves, so pricing a launch copies no grid when a
warp is whole block rows, as it is for every block shape in use.
"""

from __future__ import annotations

import numpy as np

__all__ = ["warp_extremes"]

#: lanes per warp
WARP = 32


def warp_extremes(
    lo: np.ndarray, hi: np.ndarray, block_h: int, block_w: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each warp's max of ``lo`` and min of ``hi``, reduced in place.

    ``lo`` and ``hi`` are ``(blocks_y*block_h, blocks_x*block_w)`` grids
    whose contents are undefined on return; a block's threads are
    numbered row-major and each run of 32 is one warp (``block_w *
    block_h`` must be a multiple of 32).  Returns two
    ``(blocks_y*blocks_x, warps_per_block)`` arrays: axis 0 walks blocks
    row-major, axis 1 the warps of each block.
    """
    return (
        _per_warp(lo, np.maximum, block_h, block_w),
        _per_warp(hi, np.minimum, block_h, block_w),
    )


def _per_warp(grid: np.ndarray, fold: np.ufunc, block_h: int, block_w: int) -> np.ndarray:
    """``fold`` over each warp's lanes of ``grid`` (see :func:`warp_extremes`).

    When a warp is whole rows of a block (``block_w`` divides 32), its
    rows are folded onto the first in ``grid`` itself and each row's
    lanes reduced through a view; other block shapes are regrouped into
    warps by a copy first.
    """
    blocks_y, width = grid.shape[0] // block_h, grid.shape[1]
    blocks_x = width // block_w
    if WARP % block_w == 0:
        # a warp is ``rows`` whole rows: fold them onto the first, in place
        rows = WARP // block_w
        folded = grid.reshape(-1, rows, width)
        first = folded[:, 0]
        for k in range(1, rows):
            fold(first, folded[:, k], out=first)
        lanes = first.reshape(blocks_y, -1, blocks_x, block_w)
        x_axis = 2
    else:
        blocks = grid.reshape(blocks_y, block_h, blocks_x, block_w).swapaxes(1, 2)
        lanes = blocks.reshape(blocks_y, blocks_x, -1, WARP)
        x_axis = 1
    reduced = fold.reduce(lanes, axis=-1)
    # blocks row-major, then each block's warps in thread order, C-ordered
    # so the launch builder's per-block sums add the warps in that order
    per_block = np.moveaxis(reduced, x_axis, 1).reshape(blocks_y * blocks_x, -1)
    return np.ascontiguousarray(per_block)
