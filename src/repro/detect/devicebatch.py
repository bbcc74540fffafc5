"""The lane-parallel Fig. 1 executor: one stage loop for every path.

The paper's Fig. 1 is one pipeline (pyramid -> integral -> cascade ->
display) and its Fig. 5 runs the per-scale kernels as concurrent
streams.  This module writes that sequence once, over N same-shaped
frames treated as N lanes of the same per-level streams.  The frames
are stacked into ``(n, h, w)`` arrays and every kernel site runs once
over the stack, through the backend plans' one stack-in method each
(``apply`` / ``compute`` / ``evaluate``):

* a single frame is a batch of N=1: a stack of one.  It pays its own
  simulated schedule and reports unfused :class:`TransferStats`;
* a fused device batch is N>1.  Frame-independent launches tile their
  grid n-fold, cascade launches concatenate per level, and the whole
  batch pays *one* schedule: the Fig. 5 overlap picture with frames, not
  just scales, feeding the streams;
* the two-tier fast path (:mod:`repro.detect.fastpath`) is a per-level
  reuse decision inside the same level loop.  A bit-equal level reuses
  its cached detections and (slimmed)
  :class:`~repro.detect.kernels.CascadeKernelResult`, a dirty level
  under ``fast`` goes through ``evaluate_masked``, and a whole-frame hit
  is the case where every level is clean: the schedule then replays
  from the cache too.

:class:`FrameWorkspace` owns the per-shape geometry, one scratch arena
shared by every level and the temporal cache, and feeds the executor,
which runs one pyramid level at a time;
:meth:`~repro.detect.pipeline.FaceDetectionPipeline.process_frame` runs
the same executor once over fresh geometry with the fast path off.
Functional outputs do not depend on N: every lane of every fused kernel
is bit-identical to the reference backend's per-frame bodies on
bitexact backends (the goldens assert it).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.backend.base import BilinearPlan, CascadeMaps, ComputeBackend, ScratchArena
from repro.detect.display import display_launch
from repro.detect.fastpath import (
    DENSE_FALLBACK,
    TILE,
    FastpathConfig,
    FastpathFrameStats,
    FastpathPolicy,
    dirty_window_mask,
    expand_tile_mask,
    tile_reduce_any,
    tile_reduce_max,
)
from repro.detect.kernels import (
    CascadeKernelResult,
    CascadeLaunchCosts,
    CascadeLaunchTemplate,
    cascade_launch_costs,
    rejection_histogram,
)
from repro.detect.pipeline import (
    FaceDetectionPipeline,
    FrameResult,
    collect_raw_detections,
)
from repro.detect.windows import BlockMapping
from repro.errors import ConfigurationError
from repro.gpusim.kernel import (
    WORK_FIELDS,
    BlockCohort,
    BlockWork,
    KernelLaunch,
    LaunchConfig,
)
from repro.gpusim.scheduler import ExecutionMode
from repro.image.filtering import filtering_launch
from repro.image.integral import integral_launches
from repro.image.pyramid import PyramidLevel, pyramid_scales, scaling_launch
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.utils.validation import check_shape_2d

__all__ = [
    "TransferStats",
    "BatchExecution",
    "FrameWorkspace",
    "BatchFrameWorkspace",
    "fuse_uniform_launch",
    "concat_launches",
]


# ---------------------------------------------------------------------------
# transfer accounting


@dataclass
class TransferStats:
    """Host<->device crossings a batch paid vs. the per-frame equivalent.

    One "transfer" is one staged crossing at a kernel site (upload the
    operand stack, download the result stack).  The fused path pays one
    per site per *batch*; the per-frame path pays one per site per
    *frame*.  ``saved`` is therefore ``sites * (n - 1)`` crossings per
    fused batch in each direction, and zero for N=1 lanes.
    """

    frames: int = 0
    batches: int = 0
    fused_batches: int = 0
    h2d: int = 0
    d2h: int = 0
    per_frame_h2d: int = 0
    per_frame_d2h: int = 0

    @property
    def saved(self) -> int:
        """Crossings avoided relative to the per-frame path."""
        return (self.per_frame_h2d + self.per_frame_d2h) - (self.h2d + self.d2h)


@dataclass
class BatchExecution:
    """What one :meth:`FrameWorkspace.process_batch` call produced."""

    results: list[FrameResult]
    #: the fused schedule shared by every result, ``None`` when the
    #: frames ran as N=1 lanes (a singleton, or the fast path is on)
    schedule: object | None
    transfers: TransferStats = field(default_factory=TransferStats)

    @property
    def fused(self) -> bool:
        return self.schedule is not None


# ---------------------------------------------------------------------------
# launch fusion: one KernelLaunch per kernel site covering all N frames


def _scaled_config(config: LaunchConfig, grid_blocks: int) -> LaunchConfig:
    return LaunchConfig(
        grid_blocks=grid_blocks,
        threads_per_block=config.threads_per_block,
        regs_per_thread=config.regs_per_thread,
        shared_mem_per_block=config.shared_mem_per_block,
    )


def fuse_uniform_launch(launch: KernelLaunch, n: int) -> KernelLaunch:
    """Fuse a frame-independent launch across ``n`` frames.

    The grid grows ``n``-fold, per-block work arrays are tiled (every
    frame's blocks do the same work), and the template's cost cohorts
    (its plan's, once prepared) scale their counts — per-block base cost
    is unchanged, so the fused launch occupies the device exactly like
    ``n`` back-to-back copies while costing the scheduler one event
    stream.  ``n == 1`` returns ``launch`` itself.
    """
    if n == 1:
        return launch
    work = BlockWork(
        **{f: np.tile(getattr(launch.work, f), n) for f in WORK_FIELDS}
    )
    if launch.plan is not None:
        cohorts = launch.plan.cohorts
    else:
        cohorts = [(c.count, c.base_seconds) for c in launch.cohorts]
    return KernelLaunch(
        name=launch.name,
        config=_scaled_config(launch.config, launch.config.grid_blocks * n),
        work=work,
        stream=launch.stream,
        tag=launch.tag,
        wait_streams=launch.wait_streams,
        cohorts=tuple(BlockCohort(count=c * n, base_seconds=b) for c, b in cohorts),
    )


def concat_launches(launches: list[KernelLaunch]) -> KernelLaunch:
    """Fuse same-site launches with *per-frame* work (cascade kernels).

    Cascade block cost depends on each frame's depth map, so the fused
    launch concatenates the per-frame block-work arrays instead of
    tiling one template; cohorts are left for the scheduler's cost model
    to derive once for the whole fused grid.
    """
    if not launches:
        raise ConfigurationError("concat_launches needs at least one launch")
    base = launches[0]
    if len(launches) == 1:
        return base
    work = BlockWork(
        **{
            f: np.concatenate([getattr(l.work, f) for l in launches])
            for f in WORK_FIELDS
        }
    )
    grid = sum(l.config.grid_blocks for l in launches)
    return KernelLaunch(
        name=base.name,
        config=_scaled_config(base.config, grid),
        work=work,
        stream=base.stream,
        tag=base.tag,
        wait_streams=base.wait_streams,
    )


# ---------------------------------------------------------------------------
# frame-independent per-level state


class _LevelState:
    """Per-pyramid-level backend plans and cached launch templates."""

    def __init__(
        self,
        pipeline: FaceDetectionPipeline,
        backend: ComputeBackend,
        arena: ScratchArena,
        costs: CascadeLaunchCosts,
        index: int,
        scale: float,
        width: int,
        height: int,
        octave: int,
    ) -> None:
        self.index = index
        self.scale = scale
        self.width = width
        self.height = height
        self.octave = octave
        #: the level's geometry without pixels: what slim results carry
        self.geometry = PyramidLevel(
            index=index, scale=scale, width=width, height=height, image=None
        )
        stream = index + 1

        # Validate, price and freeze the frame-independent launches once:
        # the scheduler replays their plans every frame.
        template = pipeline.scheduler.prepare
        self.pre_launches: tuple[KernelLaunch, ...]
        if index > 0:
            self.pre_launches = (
                template(filtering_launch(width, height, stream, tag="filter")),
                template(scaling_launch(width, height, stream, tag="scaling")),
            )
        else:
            self.pre_launches = ()
        self.integral_launches = tuple(
            template(launch)
            for launch in integral_launches(height, width, stream, tag="integral")
        )

        self.mapping = BlockMapping(
            level_width=width,
            level_height=height,
            window=pipeline.config.pyramid.window,
        )

        # the backend side of the seam: reusable kernels whose scratch is
        # the workspace's one arena, shared by every level
        self.integral_plan = backend.make_integral_plan(height, width, arena=arena)
        self.evaluator = backend.make_cascade_evaluator(
            pipeline.cascade, self.mapping, arena=arena
        )
        self.bilinear: BilinearPlan | None = None  # set by _Geometry

        self.launch_template = CascadeLaunchTemplate(
            costs,
            self.mapping,
            stream,
            name=f"cascade_s{index}",
            arena=arena,
        )

    def result(self, maps: CascadeMaps, n_stages: int) -> CascadeKernelResult:
        """One lane's cascade maps plus the launch priced from its depths."""
        return CascadeKernelResult(
            depth_map=maps.depth_map,
            margin_map=maps.margin_map,
            sigma_map=maps.sigma_map,
            launch=self.launch_template.build(maps.depth_map),
            mapping=self.mapping,
            rejections_by_depth=rejection_histogram(maps.depth_map, n_stages),
        )

    def summary(self, result: CascadeKernelResult) -> CascadeKernelResult:
        """``result`` without its maps and launch: what slim results carry."""
        return CascadeKernelResult(
            depth_map=None,
            margin_map=None,
            sigma_map=None,
            launch=None,
            mapping=self.mapping,
            rejections_by_depth=result.rejections_by_depth,
        )


class _Geometry:
    """Everything frame-independent for one ``(height, width)`` frame shape."""

    def __init__(
        self,
        pipeline: FaceDetectionPipeline,
        backend: ComputeBackend,
        shape: tuple[int, int],
        arena: ScratchArena,
    ) -> None:
        height, width = shape
        config = pipeline.config.pyramid
        self.shape = shape
        scales = pyramid_scales(width, height, config)

        # octave chain geometry (mirrors build_pyramid's while loop)
        octave_shapes = [(height, width)]
        while max(octave_shapes[-1]) // 2 >= config.min_image_side:
            ph, pw = octave_shapes[-1]
            octave_shapes.append((max(ph // 2, 1), max(pw // 2, 1)))
        self.octave_plans = [
            (backend.make_bilinear_plan(ph, pw, oh, ow, arena=arena), (oh, ow))
            for (ph, pw), (oh, ow) in zip(octave_shapes, octave_shapes[1:])
        ]
        #: the octave chain's lane stacks, kept from frame to frame and
        #: grown to the most lanes run (octave 0 is the frame stack itself)
        self.octaves = ScratchArena()
        n_octaves = len(octave_shapes)

        # one cost lookup per geometry: a cache hit hashes and compares
        # the whole cascade
        costs = cascade_launch_costs(pipeline.cascade)
        self.levels: list[_LevelState] = []
        for index, scale in enumerate(scales):
            w = int(width / scale)
            h = int(height / scale)
            octave = 0
            if index > 0:
                octave = min(int(np.floor(np.log2(scale))), n_octaves - 1)
            state = _LevelState(pipeline, backend, arena, costs, index, scale, w, h, octave)
            if index > 0:
                oh, ow = octave_shapes[octave]
                state.bilinear = backend.make_bilinear_plan(oh, ow, h, w, arena=arena)
            self.levels.append(state)

        self.display_stream = len(scales) + 1
        self.display_waits = tuple(range(1, len(scales) + 1))
        #: kernel sites whose operands cross the host<->device boundary:
        #: one per octave resample, one per level>0 bilinear resample, one
        #: per level integral scan, one per level cascade evaluation
        self.transfer_sites = len(self.octave_plans) + 3 * len(self.levels) - 1
        self._prepare = pipeline.scheduler.prepare
        self._static: dict[int, list[tuple]] = {}

    def static_launches(self, n: int) -> list[tuple]:
        """Per-level ``(pre, integral)`` launches for ``n`` lanes.

        Filtering/scaling/integral launches depend only on level geometry,
        so their ``n``-fold fusion is built and prepared once per lane
        count and replayed every batch (one lane replays the templates
        themselves).
        """
        cached = self._static.get(n)
        if cached is None:
            prepare = self._prepare
            cached = [
                (
                    tuple(prepare(fuse_uniform_launch(x, n)) for x in state.pre_launches),
                    tuple(prepare(fuse_uniform_launch(x, n)) for x in state.integral_launches),
                )
                for state in self.levels
            ]
            self._static[n] = cached
        return cached


# ---------------------------------------------------------------------------
# temporal delta-cache state (per workspace, per frame shape)


class _FastpathLevelCache:
    """Previous frame's pixels, detections, cascade result and launch for one level.

    ``result`` keeps only what a later frame reads (:func:`_cache_entry`);
    a clean level takes its detections from ``raw`` instead of grouping
    its maps again, and schedules ``launch``, already prepared.
    """

    __slots__ = ("image", "raw", "result", "launch")

    def __init__(self) -> None:
        self.image: np.ndarray | None = None
        self.raw: list | None = None
        self.result: CascadeKernelResult | None = None
        self.launch: KernelLaunch | None = None


def _cache_entry(
    result: CascadeKernelResult, fp: FastpathConfig, keep_maps: bool
) -> CascadeKernelResult:
    """What the temporal cache keeps of ``result``: what its policy reads.

    A clean level replays the launch and the histogram under every
    policy.  ``exact`` reuses only bit-equal levels, so it needs nothing
    else; ``fast`` carries depth and margin forward onto clean anchors of
    a dirty level (``_evaluate_fast`` recomputes sigma); ``keep_maps``
    results hand a clean level's cached maps back out, so they keep all.
    """
    if keep_maps:
        return result
    if fp.policy is FastpathPolicy.FAST:
        return replace(result, sigma_map=None)
    return replace(result, depth_map=None, margin_map=None, sigma_map=None)


class _FastpathState:
    """One stream's delta cache for one frame shape.

    Owned by exactly one workspace (workspaces are single-worker by
    contract), so under thread *and* process sharding each worker caches
    its own subsequence of the stream — reuse fires whenever *that
    worker's* previous frame matches, which keeps ``exact`` mode
    byte-identical by construction regardless of how frames shard.

    The executor refills the level caches one level at a time as it
    goes, each with a matching (pixels, detections, result) triple, and
    sets ``frame`` (level 0's cached pixels) only once every level is
    in: a pass that stops early leaves ``frame`` unset, so no whole-frame
    hit replays a half-refilled cache.
    """

    def __init__(self, n_levels: int) -> None:
        self.frame: np.ndarray | None = None
        self.caches = [_FastpathLevelCache() for _ in range(n_levels)]
        # the cached frame's simulated schedules: on a whole-frame hit the
        # launch list is content-identical and scheduler.run is a
        # deterministic, stateless function of (launches, mode), so
        # replaying them is byte-identical to recomputing them
        self.schedules: dict[ExecutionMode, object] = {}

    @property
    def complete(self) -> bool:
        return self.frame is not None and all(
            c.result is not None for c in self.caches
        )


# ---------------------------------------------------------------------------
# the executor


def _stack(lanes: list[np.ndarray]) -> np.ndarray:
    """Same-shaped float32 lanes as one ``(n, h, w)`` stack (a view of a
    lone float32 lane, so one frame is never copied)."""
    if len(lanes) == 1:
        return np.asarray(lanes[0], dtype=np.float32)[None]
    return np.stack([np.asarray(lane, dtype=np.float32) for lane in lanes])


def _build_octaves(
    geo: _Geometry, stack: np.ndarray, backend: ComputeBackend, tracer: Tracer
) -> list[np.ndarray]:
    """The octave chain's ``(n, h, w)`` lane stacks; octave 0 is ``stack``.

    Every pyramid level resamples from one octave, so the octaves live
    for the whole pass and each level is built when the loop reaches it.
    """
    octaves = [stack]
    for k, (plan, shape) in enumerate(geo.octave_plans):
        with tracer.span("pyramid.antialias"):
            filtered = _stack([backend.antialias(lane, 2.0) for lane in octaves[-1]])
        with tracer.span("pyramid.scale"):
            out = geo.octaves.take(f"octave{k}", (len(stack),) + shape, np.float32)
            octaves.append(plan.apply(filtered, out=out))
    return octaves


def _lane_maps(maps: CascadeMaps) -> list[CascadeMaps]:
    """Stacked ``(n, ay, ax)`` maps as one :class:`CascadeMaps` per lane."""
    return [CascadeMaps(*lane) for lane in zip(maps.depth_map, maps.margin_map, maps.sigma_map)]


def _n_tiles(mapping: BlockMapping) -> int:
    return (-(-mapping.anchors_y // TILE)) * (-(-mapping.anchors_x // TILE))


def _level_diff(
    image: np.ndarray, cached: np.ndarray, fp: FastpathConfig, mapping: BlockMapping
) -> tuple[bool, np.ndarray | None]:
    """``(clean, dirty anchors)`` of one level against its cached image.

    ``exact`` asks only for bit-equality; ``fast`` also maps the changed
    pixels onto the anchors whose window footprint sees them.
    """
    if fp.policy is FastpathPolicy.EXACT:
        return bool(np.array_equal(image, cached)), None
    changed = image != cached
    if not changed.any():
        return True, None
    dirty = dirty_window_mask(changed, mapping.window, mapping.anchors_y, mapping.anchors_x)
    return False, dirty


def _observe_proposal(
    tracer: Tracer,
    fp: FastpathConfig,
    result: CascadeKernelResult,
    stats: FastpathFrameStats,
    n_stages: int,
) -> None:
    """Run the variance screen observe-only (``exact`` mode).

    The full evaluation already happened, so the true accept set is
    known and the screen's recall can be *measured* instead of
    trusted — the number the ``fast`` policy's pruning rides on.
    """
    with tracer.span("fastpath.screen", cat="fastpath"):
        keep = tile_reduce_max(result.sigma_map, TILE) >= fp.min_sigma
        # the accepted anchors, and whether the screen keeps their tiles
        ys, xs = np.nonzero(result.depth_map == n_stages)
        kept = keep[ys // TILE, xs // TILE]
    stats.anchors_evaluated += result.depth_map.size
    stats.tiles_pruned += int(keep.size - np.count_nonzero(keep))
    stats.proposal_total += int(ys.size)
    stats.proposal_kept += int(np.count_nonzero(kept))


def _evaluate_fast(
    tracer: Tracer,
    fp: FastpathConfig,
    state: _LevelState,
    ii: np.ndarray,
    sqii: np.ndarray,
    dirty: np.ndarray | None,
    cached: CascadeKernelResult | None,
    stats: FastpathFrameStats,
) -> CascadeMaps:
    """The pruning evaluation (``fast`` mode) for one dirty level."""
    mapping = state.mapping
    ay, ax = mapping.anchors_y, mapping.anchors_x
    total = ay * ax
    evaluator = state.evaluator
    with tracer.span("fastpath.screen", cat="fastpath"):
        sigma = evaluator.window_sigma(ii, sqii)
        keep_tiles = tile_reduce_max(sigma, TILE) >= fp.min_sigma
        textured = expand_tile_mask(keep_tiles, TILE, ay, ax)

    if dirty is None:
        active = textured
    else:
        active = np.logical_and(dirty, textured)
        stats.tiles_clean += int(
            keep_tiles.size - np.count_nonzero(tile_reduce_any(dirty, TILE))
        )
    active_count = int(np.count_nonzero(active))

    if active_count >= DENSE_FALLBACK * total:
        # too much motion/texture for masked gathers to pay for
        # themselves: full dense refresh, no pruning on this level
        stats.anchors_evaluated += total
        return evaluator.evaluate(ii, sqii)
    maps = evaluator.evaluate_masked(ii, sqii, active, sigma=sigma)
    depth, margin = maps.depth_map, maps.margin_map
    carried = 0
    if dirty is not None:
        clean = np.logical_not(dirty)
        carried = total - int(np.count_nonzero(dirty))
        depth = np.where(clean, cached.depth_map, depth)
        margin = np.where(clean, cached.margin_map, margin)
    stats.anchors_evaluated += active_count
    stats.anchors_carried += carried
    stats.anchors_pruned += total - active_count - carried
    stats.tiles_pruned += int(keep_tiles.size - np.count_nonzero(keep_tiles))
    return CascadeMaps(depth_map=depth, margin_map=margin, sigma_map=sigma)


def _execute(
    pipeline: FaceDetectionPipeline,
    geo: _Geometry,
    frames: list[np.ndarray],
    modes: list[ExecutionMode],
    tracer: Tracer,
    fp: FastpathConfig,
    cache: _FastpathState | None,
    keep_maps: bool,
) -> dict[ExecutionMode, list[FrameResult]]:
    """Run the Fig. 1 stage sequence over ``frames`` as lanes, once.

    The functional pass runs one level at a time: build the level,
    integrate it, evaluate it and group its detections, then drop its
    pixels, integrals and maps before the next level.  The launch list
    it builds is scheduled under each of ``modes``.  ``fp`` enabled
    implies a single lane (the workspace's dispatch rule); ``cache`` is
    that lane's temporal delta cache, or ``None`` when temporal reuse is
    off.  The cache keeps the lane's pixels, per-level detections and
    what its policy reads of each result (:func:`_cache_entry`); results
    carry level images and maps only under ``keep_maps``.
    """
    n = len(frames)
    backend = pipeline.backend
    prepare = pipeline.scheduler.prepare
    n_stages = pipeline.cascade.num_stages
    window = pipeline.config.pyramid.window
    stack = _stack(frames)

    stats: FastpathFrameStats | None = None
    frame_hit = False
    if fp.enabled:
        stats = FastpathFrameStats(policy=fp.policy.value, levels=len(geo.levels))
        if cache is not None and cache.complete:
            with tracer.span("fastpath.diff", cat="fastpath"):
                frame_hit = bool(np.array_equal(stack[0], cache.frame))
            stats.frames_reused = int(frame_hit)
    # a hit's launch list is content-identical to the cached frame's, so
    # a hit whose every schedule is cached replays the schedules
    replay = frame_hit and all(mode in cache.schedules for mode in modes)
    refill = cache is not None and not frame_hit
    if frame_hit:
        octaves = None  # the whole frame matches: skip the pyramid
    else:
        octaves = _build_octaves(geo, stack, backend, tracer)
    if refill:
        cache.frame = None
    level_caches = cache.caches if cache is not None else [None] * len(geo.levels)

    launches: list[KernelLaunch] = []
    levels: list[list[PyramidLevel]] = [[] for _ in range(n)]
    kernels: list[list[CascadeKernelResult]] = [[] for _ in range(n)]
    raws: list[list] = [[] for _ in range(n)]
    for state, (pre, integral), level_cache in zip(
        geo.levels, geo.static_launches(n), level_caches
    ):
        launches.extend(pre)
        if frame_hit:
            images = level_cache.image[None]
        elif state.index == 0:
            images = stack
        else:
            with tracer.span("pyramid.scale"):
                images = state.bilinear.apply(octaves[state.octave])
        clean, dirty = frame_hit, None
        if not clean and level_cache is not None and level_cache.result is not None:
            with tracer.span("fastpath.diff", cat="fastpath"):
                clean, dirty = _level_diff(images[0], level_cache.image, fp, state.mapping)
        if stats is not None:
            tiles = _n_tiles(state.mapping)
            anchors = state.mapping.anchors_y * state.mapping.anchors_x
            stats.tiles += tiles
            stats.anchors += anchors
            if clean:
                stats.levels_reused += 1
                stats.anchors_carried += anchors
                stats.tiles_clean += tiles
        if clean:
            results = [level_cache.result]
            cascade_launch = level_cache.launch
        else:
            with tracer.span("integral"):
                iis, sqiis = state.integral_plan.compute(images)
            with tracer.span("cascade"):
                if fp.policy is FastpathPolicy.FAST:
                    cached = level_cache.result if level_cache is not None else None
                    maps = [
                        _evaluate_fast(tracer, fp, state, iis[0], sqiis[0], dirty, cached, stats)
                    ]
                else:
                    maps = _lane_maps(state.evaluator.evaluate(iis, sqiis))
                with tracer.span("launch.build"):
                    results = [state.result(m, n_stages) for m in maps]
                    cascade_launch = prepare(
                        concat_launches([result.launch for result in results])
                    )
                if fp.policy is FastpathPolicy.EXACT:
                    _observe_proposal(tracer, fp, results[0], stats, n_stages)
            del iis, sqiis, maps
        launches.extend(integral)
        launches.append(cascade_launch)
        # grouping is deterministic in (level, kernel result): a clean
        # level's detections are its cached ones
        if clean:
            level_raws = [level_cache.raw]
        else:
            with tracer.span("grouping"):
                level_raws = [
                    collect_raw_detections([state.geometry], [result], window)
                    for result in results
                ]
        for raw, level_raw in zip(raws, level_raws):
            raw.extend(level_raw)
        if refill:
            # level 0 aliases the caller's frame buffer (a shared-memory
            # ring slot under process sharding), so the cache copies it,
            # once the stale copy is let go (the level's maps are still
            # alive here); deeper levels are fresh arrays from the
            # bilinear plans
            level_cache.image = None
            level_cache.image = np.array(images[0]) if state.index == 0 else images[0]
            level_cache.raw = level_raws[0]
            level_cache.result = _cache_entry(results[0], fp, keep_maps)
            level_cache.launch = cascade_launch
        for i, result in enumerate(results):
            if keep_maps:
                levels[i].append(replace(state.geometry, image=images[i]))
                kernels[i].append(result)
            else:
                levels[i].append(state.geometry)
                kernels[i].append(state.summary(result))
        # the level's pixels and maps go before the next level is built
        del images, results, result
    if refill:
        cache.frame = level_caches[0].image

    if replay:
        schedules = {mode: cache.schedules[mode] for mode in modes}
    else:
        with tracer.span("launch.build"):
            display = display_launch(
                stack.shape[2],
                stack.shape[1],
                sum(len(raw) for raw in raws),
                stream=geo.display_stream,
                # the display kernel reads every scale's depth array, so it
                # waits on all per-scale streams (stream-event dependency)
                wait_streams=geo.display_waits,
            )
            launches.append(prepare(display))
        schedules = {}
        for mode in modes:
            with tracer.span("schedule"):
                schedules[mode] = pipeline.scheduler.run(launches, mode)
        if cache is not None:
            if refill:
                cache.schedules = {}
            cache.schedules.update(schedules)

    device_batch = n if n > 1 else None
    return {
        mode: [
            FrameResult(
                raw_detections=raws[i],
                schedule=schedules[mode],
                kernel_results=kernels[i],
                levels=levels[i],
                fastpath=stats,
                device_batch=device_batch,
            )
            for i in range(n)
        ]
        for mode in modes
    }


# ---------------------------------------------------------------------------
# the workspace: per-worker caches around the executor


class FrameWorkspace:
    """Reusable per-worker execution context around the executor.

    Caches everything frame-independent per frame shape (pyramid
    resampling plans, block mappings, launch templates with precomputed
    cost cohorts, backend integral plans and cascade evaluators, fused
    launches per lane count) plus the fast path's temporal delta cache,
    so a workspace can serve mixed-resolution streams and each
    resolution pays its plan cost once.  Every plan of every shape
    shares one :class:`~repro.backend.base.ScratchArena`, sized to the
    largest level the workspace has run, because the executor runs one
    level at a time.  Not thread-safe: each engine worker owns one
    workspace.

    Results are slim by default: detections, schedule, fast-path stats,
    per-level geometry (image ``None``) and per-level
    ``rejections_by_depth`` (maps and launch ``None``).  ``keep_maps``
    keeps every level image and cascade map on them instead, the view
    the one-shot :meth:`FaceDetectionPipeline.process_frame` oracle
    always returns.

    ``tracer`` wraps every Fig. 1 stage in a span (DESIGN §8).  Spans
    only observe — output stays byte-identical with tracing on.
    """

    def __init__(
        self,
        pipeline: FaceDetectionPipeline,
        tracer: Tracer | None = None,
        stream: str | None = "default",
        keep_maps: bool = False,
    ) -> None:
        self._pipeline = pipeline
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._backend = pipeline.backend
        self._fastpath = pipeline.fastpath
        #: stream identity for the temporal delta cache; ``None`` disables
        #: temporal reuse (the proposal screen still applies under ``fast``)
        self._stream = stream
        self._keep_maps = keep_maps
        self._arena = ScratchArena()
        self._geometries: dict[tuple[int, int], _Geometry] = {}
        self._fp_states: dict[tuple[int, int], _FastpathState] = {}

    @property
    def fastpath(self) -> FastpathConfig:
        """The resolved fast-path configuration this workspace applies."""
        return self._fastpath

    @property
    def stream(self) -> str | None:
        """Stream identity for temporal reuse (``None`` = disabled)."""
        return self._stream

    @property
    def pipeline(self) -> FaceDetectionPipeline:
        return self._pipeline

    @property
    def tracer(self) -> Tracer:
        """The tracer every stage span of this workspace records into."""
        return self._tracer

    @property
    def backend(self) -> ComputeBackend:
        """The compute backend whose plans this workspace replays."""
        return self._backend

    def process_frame(
        self, luma: np.ndarray, mode: ExecutionMode | None = None
    ) -> FrameResult:
        """Run the Fig. 1 pipeline over one luma frame (a single lane).

        Float-identical to :meth:`FaceDetectionPipeline.process_frame`
        when the fast path is off; the frame keeps its own schedule.
        """
        return self._run([luma], mode)[0]

    def process_batch(
        self, lumas, mode: ExecutionMode | None = None
    ) -> BatchExecution:
        """Run N same-shaped frames as one fused device batch.

        Every frame's detections are bit-identical to
        :meth:`process_frame` on bitexact backends.  The returned
        results *share* one fused
        :class:`~repro.gpusim.scheduler.ScheduleResult` (each result's
        ``device_batch`` records the batch size so aggregation can count
        it once).  A singleton batch is one N=1 lane, and so is every
        frame while the fast path is on: its temporal delta cache is
        sequential across frames, and fusing it waits on the fused
        temporal reference (DESIGN §12, "The N=1 rule").
        """
        frames = list(lumas)
        if not frames:
            raise ConfigurationError("process_batch needs at least one frame")
        lanes = [[frame] for frame in frames] if self._fastpath.enabled else [frames]
        results = [result for lane in lanes for result in self._run(lane, mode)]
        n = len(results)
        fused = n > 1 and len(lanes) == 1
        sites = self._geometries[np.shape(frames[0])].transfer_sites
        paid = sites if fused else sites * n
        transfers = TransferStats(
            frames=n,
            batches=1,
            fused_batches=int(fused),
            h2d=paid,
            d2h=paid,
            per_frame_h2d=sites * n,
            per_frame_d2h=sites * n,
        )
        schedule = results[0].schedule if fused else None
        return BatchExecution(results=results, schedule=schedule, transfers=transfers)

    def _run(self, lumas: list, mode: ExecutionMode | None) -> list[FrameResult]:
        frames = [np.asarray(luma) for luma in lumas]
        for frame in frames:
            check_shape_2d("luma", frame)
        shapes = {frame.shape for frame in frames}
        if len(shapes) != 1:
            raise ConfigurationError(
                f"a device batch needs one frame shape, got {sorted(shapes)}"
            )
        shape = frames[0].shape
        geo = self._geometries.get(shape)
        if geo is None:
            geo = self._geometries[shape] = _Geometry(
                self._pipeline, self._backend, shape, self._arena
            )
        cache = None
        if self._fastpath.enabled and self._stream is not None:
            cache = self._fp_states.get(shape)
            if cache is None:
                cache = self._fp_states[shape] = _FastpathState(len(geo.levels))
        mode = mode or self._pipeline.config.mode
        return _execute(
            self._pipeline,
            geo,
            frames,
            [mode],
            self._tracer,
            self._fastpath,
            cache,
            self._keep_maps,
        )[mode]


#: the batch-capable workspace is the one workspace (kept importable by name)
BatchFrameWorkspace = FrameWorkspace
