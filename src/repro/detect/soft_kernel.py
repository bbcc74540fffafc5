"""Soft-cascade evaluation kernel (future-work extension, Section VII).

The GPU formulation mirrors :mod:`repro.detect.kernels` but walks one
monotone classifier chain with a per-classifier rejection trace instead of
staged sums.  Early exits can happen after *any* classifier, so the
functional layer processes the chain in small groups (re-compacting the
surviving anchors between groups), and the cost layer charges each warp for
the chain prefix up to its deepest surviving lane — the same SIMT semantics
as the staged kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend.warps import warp_extremes
from repro.boosting.soft_cascade import SoftCascade
from repro.detect.kernels import (
    INSTR_PER_CLASSIFIER,
    INSTR_PER_RECT,
    INSTR_STAGING_PER_THREAD,
    SHARED_BYTES_PER_RECT_WARP,
)
from repro.detect.windows import BlockMapping
from repro.errors import ConfigurationError
from repro.gpusim.kernel import BlockWork, KernelLaunch, LaunchConfig
from repro.haar.features import feature_rects, feature_values_at, feature_values_grid
from repro.image.integral import integral_image, squared_integral_image

__all__ = ["SoftKernelResult", "soft_cascade_eval_kernel"]

#: chain classifiers processed between survivor re-compactions
_GROUP = 8

#: extra instructions per classifier for the running-score compare/exit
_INSTR_TRACE_CHECK = 4.0

_WINDOW_AREA = 24 * 24


@dataclass
class SoftKernelResult:
    """Functional + timing output of one soft-cascade kernel launch."""

    exit_map: np.ndarray  # (ay, ax): classifiers evaluated per anchor
    score_map: np.ndarray  # (ay, ax): running score at exit
    launch: KernelLaunch
    mapping: BlockMapping
    chain_length: int

    @property
    def accepted(self) -> tuple[np.ndarray, np.ndarray]:
        """(ys, xs) anchors that survived the whole chain."""
        ys, xs = np.nonzero(self.exit_map == self.chain_length)
        return ys, xs

    @property
    def mean_classifiers_per_window(self) -> float:
        """The soft cascade's efficiency metric."""
        return float(self.exit_map.mean())


def soft_cascade_eval_kernel(
    level_image: np.ndarray,
    soft: SoftCascade,
    stream: int,
    *,
    mapping: BlockMapping | None = None,
    name: str | None = None,
) -> SoftKernelResult:
    """Evaluate a soft cascade over every window anchor of one level."""
    img = np.asarray(level_image, dtype=np.float64)
    if img.ndim != 2:
        raise ConfigurationError(f"level image must be 2-D, got shape {img.shape}")
    mapping = mapping or BlockMapping(level_width=img.shape[1], level_height=img.shape[0])
    ii = integral_image(img)
    sq = squared_integral_image(img)

    ay, ax = mapping.anchors_y, mapping.anchors_x
    w = mapping.window
    win_sum = (ii[w:, w:] - ii[:-w, w:] - ii[w:, :-w] + ii[:-w, :-w])[:ay, :ax]
    win_sq = (sq[w:, w:] - sq[:-w, w:] - sq[w:, :-w] + sq[:-w, :-w])[:ay, :ax]
    mean = win_sum / _WINDOW_AREA
    sigma = np.sqrt(np.maximum(win_sq / _WINDOW_AREA - mean * mean, 1.0))

    exit_map = np.zeros((ay, ax), dtype=np.int64)
    score_map = np.zeros((ay, ax), dtype=np.float64)
    total = soft.length
    trace = soft.rejection_trace

    # first group dense (everything alive), then sparse survivor gathers
    dense_scores = np.zeros((ay, ax))
    alive_ys = alive_xs = None
    sparse_scores = None
    for start in range(0, total, _GROUP):
        group = range(start, min(start + _GROUP, total))
        if alive_ys is None:
            for t in group:
                c = soft.classifiers[t]
                vals = feature_values_grid(ii, c.feature)[:ay, :ax]
                dense_scores += np.where(vals <= c.threshold * sigma, c.left, c.right)
                dead = dense_scores < trace[t]
                still = exit_map == 0
                exit_map[still & dead] = t + 1
                score_map[still & dead] = dense_scores[still & dead]
            alive_mask = exit_map == 0
            alive_ys, alive_xs = np.nonzero(alive_mask)
            sparse_scores = dense_scores[alive_ys, alive_xs]
        else:
            if alive_ys.size == 0:
                break
            sig = sigma[alive_ys, alive_xs]
            keep = np.ones(alive_ys.size, dtype=bool)
            for t in group:
                c = soft.classifiers[t]
                idx = np.nonzero(keep)[0]
                if idx.size == 0:
                    break
                vals = feature_values_at(ii, c.feature, alive_ys[idx], alive_xs[idx])
                sparse_scores[idx] += np.where(
                    vals <= c.threshold * sig[idx], c.left, c.right
                )
                dead = sparse_scores[idx] < trace[t]
                dead_idx = idx[dead]
                exit_map[alive_ys[dead_idx], alive_xs[dead_idx]] = t + 1
                score_map[alive_ys[dead_idx], alive_xs[dead_idx]] = sparse_scores[dead_idx]
                keep[dead_idx] = False
            alive_ys = alive_ys[keep]
            alive_xs = alive_xs[keep]
            sparse_scores = sparse_scores[keep]

    if alive_ys is not None and alive_ys.size:
        exit_map[alive_ys, alive_xs] = total
        score_map[alive_ys, alive_xs] = sparse_scores

    launch = _build_launch(soft, mapping, exit_map, stream, name)
    return SoftKernelResult(
        exit_map=exit_map,
        score_map=score_map,
        launch=launch,
        mapping=mapping,
        chain_length=total,
    )


def _build_launch(
    soft: SoftCascade,
    mapping: BlockMapping,
    exit_map: np.ndarray,
    stream: int,
    name: str | None,
) -> KernelLaunch:
    """Per-block SIMT cost derived from the measured exit positions."""
    per_classifier_instr = np.array(
        [
            INSTR_PER_CLASSIFIER
            + _INSTR_TRACE_CHECK
            + INSTR_PER_RECT * len(feature_rects(c.feature))
            for c in soft.classifiers
        ]
    )
    cum_instr = np.concatenate([[0.0], np.cumsum(per_classifier_instr)])
    per_classifier_shared = np.array(
        [SHARED_BYTES_PER_RECT_WARP * len(feature_rects(c.feature)) for c in soft.classifiers]
    )
    cum_shared = np.concatenate([[0.0], np.cumsum(per_classifier_shared)])

    bw, bh = mapping.block_w, mapping.block_h
    by, bx = mapping.blocks_y, mapping.blocks_x
    pad_lo = np.zeros((by * bh, bx * bw), dtype=np.int64)
    pad_lo[: exit_map.shape[0], : exit_map.shape[1]] = exit_map
    pad_hi = np.full((by * bh, bx * bw), soft.length, dtype=np.int64)
    pad_hi[: exit_map.shape[0], : exit_map.shape[1]] = exit_map

    warp_exec, hi_min = warp_extremes(pad_lo, pad_hi, bh, bw)
    warp_min = np.minimum(hi_min, warp_exec)

    staging = INSTR_STAGING_PER_THREAD * mapping.threads_per_block / 32.0
    instr = cum_instr[warp_exec].sum(axis=1) + staging * warp_exec.shape[1]
    shared = cum_shared[warp_exec].sum(axis=1) + mapping.shared_tile_bytes
    # one exit-test branch per evaluated classifier; lanes diverging inside
    # the warp's prefix count as divergent
    branches = warp_exec.sum(axis=1).astype(np.float64)
    divergent = (warp_exec - warp_min).sum(axis=1).astype(np.float64)

    work = BlockWork(
        warp_instructions=instr,
        dram_bytes_read=np.full(mapping.grid_blocks, 2.0 * mapping.shared_tile_bytes * 0.015),
        dram_bytes_written=np.full(mapping.grid_blocks, mapping.threads_per_block * 4.0),
        branches=np.maximum(branches, 1.0),
        divergent_branches=np.minimum(divergent, branches),
        shared_bytes=shared,
        constant_requests=5.0 * warp_exec.sum(axis=1),
    )
    config = LaunchConfig(
        grid_blocks=mapping.grid_blocks,
        threads_per_block=mapping.threads_per_block,
        regs_per_thread=24,
        shared_mem_per_block=mapping.shared_tile_bytes,
    )
    return KernelLaunch(
        name=name or f"softcascade_{mapping.level_width}x{mapping.level_height}",
        config=config,
        work=work,
        stream=stream,
        tag="cascade",
    )
