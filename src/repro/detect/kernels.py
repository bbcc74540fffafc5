"""The cascade evaluation kernel — Section III-C.

This is "the most resource-intensive part of the face detection pipeline".
Functionally, every window anchor of a pyramid level walks the boosted
cascade until a stage rejects it; the kernel's output is the paper's array
of *deepest stage reached* per anchor (Section III-D), from which both
detections (depth == number of stages) and the Fig. 7 rejection histograms
are read.

Execution model mirrored from the paper:

* one thread per window anchor, ``n x m`` anchors per block (Eqs. 1-4, via
  :class:`~repro.detect.windows.BlockMapping`), integral pixels staged
  through shared memory;
* all feature data read from constant memory (broadcast, Section III-C);
* warp-level SIMT semantics: a warp keeps executing a stage as long as *any*
  of its lanes is still alive, so the timing-layer cost of a block is driven
  by each warp's deepest lane, and lanes that reject early simply idle —
  the divergence behaviour whose measured branch efficiency the paper
  reports as 98.9 %.

The numeric evaluation itself lives behind the
:class:`~repro.backend.base.ComputeBackend` seam (dense grid stages, then
sparse survivor gathers); this module keeps the kernel's *launch* side:
deriving the timing-layer :class:`KernelLaunch` from the measured anchor
depths via :class:`CascadeLaunchTemplate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.backend.base import ScratchArena
from repro.backend.warps import warp_extremes
from repro.errors import ConfigurationError
from repro.detect.windows import BlockMapping
from repro.gpusim.kernel import BlockWork, KernelLaunch, LaunchConfig
from repro.haar.cascade import Cascade
from repro.haar.features import feature_rects
from repro.image.integral import integral_image, squared_integral_image

__all__ = [
    "CascadeKernelResult",
    "cascade_eval_kernel",
    "stage_instruction_costs",
    "CascadeLaunchCosts",
    "cascade_launch_costs",
    "CascadeLaunchTemplate",
    "rejection_histogram",
]

# -- calibration constants (see DESIGN.md section 6) -------------------------
#: warp instructions per Haar rectangle: 4 shared fetches + address math +
#: the multiply-accumulate (paper: 9 memory accesses per rectangle)
INSTR_PER_RECT = 34.0
#: per-classifier overhead: threshold compare against sigma, vote accumulate
INSTR_PER_CLASSIFIER = 26.0
#: per-stage overhead: stage-sum test and exit branch
INSTR_PER_STAGE = 14.0
#: staging instructions per thread (the four Eq. 1-4 transfers)
INSTR_STAGING_PER_THREAD = 10.0
#: shared-memory bytes touched per classifier per warp (4 corners x 4 B x
#: 32 lanes per rectangle)
SHARED_BYTES_PER_RECT_WARP = 512.0
#: constant-memory requests per classifier (geometry words + threshold/votes)
CONST_REQUESTS_PER_CLASSIFIER = 5.0
#: L2 hit rate of the staging reads: the integral image was just written by
#: the integral kernels and neighbouring blocks share three quarters of each
#: tile (Eqs. 1-4), so almost all staging traffic is absorbed by the cache.
#: This is why the paper measures only 9.57-532 MB/s of DRAM reads.
L2_HIT_RATE = 0.985
#: anchors per ``np.bincount`` call of :func:`rejection_histogram`
_HISTOGRAM_CHUNK = 1 << 14


@lru_cache(maxsize=64)
def stage_instruction_costs(cascade: Cascade) -> np.ndarray:
    """Warp instructions to execute each stage once (length S array).

    Cached per cascade: the pipeline queries this for every pyramid level
    of every frame.
    """
    costs = []
    for stage in cascade.stages:
        instr = INSTR_PER_STAGE
        for c in stage.classifiers:
            instr += INSTR_PER_CLASSIFIER + INSTR_PER_RECT * len(feature_rects(c.feature))
        costs.append(instr)
    return np.array(costs, dtype=np.float64)


@lru_cache(maxsize=64)
def _stage_shared_bytes(cascade: Cascade) -> np.ndarray:
    """Shared-memory bytes per warp to execute each stage once (cached)."""
    return np.array(
        [
            sum(SHARED_BYTES_PER_RECT_WARP * len(feature_rects(c.feature)) for c in s.classifiers)
            for s in cascade.stages
        ]
    )


@lru_cache(maxsize=64)
def _stage_const_requests(cascade: Cascade) -> np.ndarray:
    """Constant-memory requests per warp per stage (cached)."""
    return np.array(
        [CONST_REQUESTS_PER_CLASSIFIER * len(s) + 1 for s in cascade.stages]
    )


@dataclass(frozen=True)
class CascadeLaunchCosts:
    """Cumulative per-stage cost-model arrays of one cascade.

    ``cum_*[k]`` is the cost of executing stages ``0..k-1``; indexing by a
    warp's executed-stage count prices its whole cascade prefix at once.
    """

    cum_instr: np.ndarray
    cum_shared: np.ndarray
    cum_const: np.ndarray
    n_stages: int


@lru_cache(maxsize=16)
def cascade_launch_costs(cascade: Cascade) -> CascadeLaunchCosts:
    """Resolve the cumulative cost arrays once per cascade (hash-once)."""
    return CascadeLaunchCosts(
        cum_instr=np.concatenate([[0.0], np.cumsum(stage_instruction_costs(cascade))]),
        cum_shared=np.concatenate([[0.0], np.cumsum(_stage_shared_bytes(cascade))]),
        cum_const=np.concatenate([[0.0], np.cumsum(_stage_const_requests(cascade))]),
        n_stages=cascade.num_stages,
    )


class CascadeLaunchTemplate:
    """Frame-independent state for pricing cascade launches of one level.

    Holds the launch parameters that only depend on (cascade, mapping,
    stream); :meth:`build` then derives the per-frame
    :class:`KernelLaunch` from measured anchor depths, padding them in
    two buffers of ``arena`` (a private one when ``None``).  The engine
    caches one template per pyramid level over its workspace's arena;
    the one-shot kernel builds a throwaway one per call.  Not
    thread-safe (shared pads).
    """

    def __init__(
        self,
        costs: CascadeLaunchCosts,
        mapping: BlockMapping,
        stream: int,
        name: str | None = None,
        *,
        arena: ScratchArena | None = None,
    ) -> None:
        self._costs = costs
        self._mapping = mapping
        self._stream = stream
        self._name = name or f"cascade_{mapping.level_width}x{mapping.level_height}"
        m = mapping
        self._arena = arena if arena is not None else ScratchArena()
        self._pad_shape = (m.blocks_y * m.block_h, m.blocks_x * m.block_w)
        self._staging = INSTR_STAGING_PER_THREAD * m.threads_per_block / 32.0
        self._dram_read = 2.0 * m.shared_tile_bytes * (1.0 - L2_HIT_RATE)
        self._dram_write = m.threads_per_block * 4.0
        self._config = LaunchConfig(
            grid_blocks=m.grid_blocks,
            threads_per_block=m.threads_per_block,
            regs_per_thread=24,
            shared_mem_per_block=m.shared_tile_bytes,
        )

    def build(self, depth: np.ndarray) -> KernelLaunch:
        """Derive the timing-layer launch from the measured anchor depths."""
        m = self._mapping
        costs = self._costs
        n_stages = costs.n_stages

        # Out-of-grid lanes (edge blocks) exit at the bounds check: they add
        # no work and no divergence.  Pad with -1 for the max (never deepens
        # a warp) and with n_stages for the min (never widens its spread).
        pad_lo = self._arena.take("launch.pad_lo", self._pad_shape, np.int32)
        pad_lo.fill(-1)
        pad_lo[: depth.shape[0], : depth.shape[1]] = depth
        pad_hi = self._arena.take("launch.pad_hi", self._pad_shape, np.int32)
        pad_hi.fill(n_stages)
        pad_hi[: depth.shape[0], : depth.shape[1]] = depth
        lo_max, hi_min = warp_extremes(pad_lo, pad_hi, m.block_h, m.block_w)
        # a warp executes stage k while any lane is alive: stages executed =
        # min(deepest lane depth + 1, S)
        warp_exec = np.minimum(lo_max + 1, n_stages)
        warp_min = np.minimum(np.minimum(hi_min, lo_max) + 1, n_stages)

        gathered_instr = costs.cum_instr[warp_exec]
        instr = gathered_instr.sum(axis=1) + self._staging * lo_max.shape[1]
        shared = costs.cum_shared[warp_exec].sum(axis=1) + m.shared_tile_bytes
        const = costs.cum_const[warp_exec].sum(axis=1)
        # branch accounting: one exit branch per executed stage, divergent
        # when the warp's lanes leave at different stages
        branches = warp_exec.astype(np.float64) + gathered_instr / 20.0
        divergent = (warp_exec - warp_min).astype(np.float64)

        work = BlockWork(
            warp_instructions=instr,
            dram_bytes_read=np.full(m.grid_blocks, self._dram_read),
            dram_bytes_written=np.full(m.grid_blocks, self._dram_write),
            branches=branches.sum(axis=1),
            divergent_branches=divergent.sum(axis=1),
            shared_bytes=shared,
            constant_requests=const,
        )
        return KernelLaunch(
            name=self._name,
            config=self._config,
            work=work,
            stream=self._stream,
            tag="cascade",
        )


@dataclass
class CascadeKernelResult:
    """Functional + timing output of one cascade kernel launch.

    Slim engine results keep only ``mapping`` and
    ``rejections_by_depth``; their maps and ``launch`` are ``None``
    (see :class:`~repro.detect.pipeline.FrameResult`).
    """

    depth_map: np.ndarray | None  # (ay, ax) int32: stages passed per anchor
    margin_map: np.ndarray | None  # (ay, ax): last evaluated stage's margin
    sigma_map: np.ndarray | None  # (ay, ax): per-window pixel std deviations
    launch: KernelLaunch | None
    mapping: BlockMapping
    rejections_by_depth: np.ndarray  # (S+1,): anchors whose depth == k

    @property
    def accepted(self) -> tuple[np.ndarray, np.ndarray]:
        """(ys, xs) anchors accepted by every stage."""
        full = int(self.rejections_by_depth.shape[0] - 1)
        ys, xs = np.nonzero(self.depth_map == full)
        return ys, xs

    @property
    def score_map(self) -> np.ndarray:
        """Detection score per anchor: depth plus a squashed margin.

        Monotone in the stage depth, tie-broken by the margin of the last
        stage evaluated — the scalar the Fig. 9 threshold sweep varies.
        """
        return _detection_scores(self.depth_map, self.margin_map)

    def scores_at(self, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """:attr:`score_map` at the anchors ``(ys, xs)`` only.

        The score is elementwise, so gathering depth and margin first
        gives the same bytes as indexing the full map.
        """
        return _detection_scores(self.depth_map[ys, xs], self.margin_map[ys, xs])


def rejection_histogram(depth: np.ndarray, n_stages: int) -> np.ndarray:
    """``(S+1,)`` anchor counts per depth of a depth map (Fig. 7).

    ``np.bincount`` casts its int32 input to int64, so it runs over
    chunks of the map: a whole-level call would copy the map at twice
    its size.
    """
    flat = depth.reshape(-1)
    counts = np.zeros(n_stages + 1, dtype=np.intp)
    for i in range(0, flat.size, _HISTOGRAM_CHUNK):
        counts += np.bincount(flat[i : i + _HISTOGRAM_CHUNK], minlength=n_stages + 1)
    return counts


def _detection_scores(depth: np.ndarray, margin: np.ndarray) -> np.ndarray:
    """Depth plus the squashed margin, elementwise (the Fig. 9 scalar)."""
    return depth + 1.0 / (1.0 + np.exp(-np.clip(margin, -30, 30)))


def cascade_eval_kernel(
    level_image: np.ndarray,
    cascade: Cascade,
    stream: int,
    *,
    mapping: BlockMapping | None = None,
    name: str | None = None,
    integral: np.ndarray | None = None,
    squared: np.ndarray | None = None,
    backend=None,
) -> CascadeKernelResult:
    """Evaluate ``cascade`` over every window anchor of one pyramid level.

    ``integral``/``squared`` may be passed when the pipeline already
    computed them (the Fig. 1 integral stage); otherwise they are built
    here.  ``backend`` selects the :class:`~repro.backend.base.
    ComputeBackend` that runs the numeric evaluation — a registry name, an
    instance, or ``None`` for the env/default chain.  Returns the
    functional maps plus a timing-layer :class:`KernelLaunch` whose
    per-block work is derived from the measured warp depths (SIMT
    semantics, see module docstring).
    """
    # lazy import: repro.backend registers implementations that read
    # repro.haar/repro.image; a module-level import would cycle
    from repro.backend import get_backend

    img = np.asarray(level_image, dtype=np.float64)
    if img.ndim != 2:
        raise ConfigurationError(f"level image must be 2-D, got shape {img.shape}")
    if cascade.window != 24:
        raise ConfigurationError("the kernel is specialised for 24x24 windows")
    mapping = mapping or BlockMapping(level_width=img.shape[1], level_height=img.shape[0])
    ii = integral_image(img) if integral is None else integral
    sq = squared_integral_image(img) if squared is None else squared

    evaluator = get_backend(backend).make_cascade_evaluator(cascade, mapping)
    maps = evaluator.evaluate(ii, sq)

    n_stages = cascade.num_stages
    rejections = rejection_histogram(maps.depth_map, n_stages)
    template = CascadeLaunchTemplate(cascade_launch_costs(cascade), mapping, stream, name)
    return CascadeKernelResult(
        depth_map=maps.depth_map,
        margin_map=maps.margin_map,
        sigma_map=maps.sigma_map,
        launch=template.build(maps.depth_map),
        mapping=mapping,
        rejections_by_depth=rejections,
    )
