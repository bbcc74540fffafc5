"""Deterministic memory guards for the executor and its results.

Ten bounds, measured with ``tracemalloc`` (allocation counts, not the
noisy process RSS) or, for the stream's live frames, weak references;
most of them on 480x270 frames:

* the stream engine keeps fewer than ``max_in_flight`` earlier frames
  alive at every pull, on threads, processes and ``workers=0``: a
  group's frames die when its job completes, not after the next group
  has been pulled;
* a workspace holds one largest-level scratch set (its one arena), the
  fast path's temporal cache, its frame-independent plans and its
  octave chain's stacks — not one scratch set per pyramid level — and
  the cache keeps per level only what its policy reads again;
* the arena holds exactly the owner slots DESIGN §7 lists, one per
  live range, with the bytes its table gives at 480x270: two padded
  integrals, two flag grids, the cascade's corner offsets and four
  dense slots — ``vectorized``'s sized by its element budget, the
  reference's full anchor grids (plus its sparse survivor vectors).
  The bilinear scratch, the launch pads and ``vectorized``'s survivor
  gathers borrow the integral and dense slots, as
  :data:`~repro.backend.base.BORROWED_SLOTS` and the table say; a
  fused N=3 batch stacks the slots, to at most three times those
  bytes, and allocates no level stack outside them;
* ``vectorized``'s dense slots stay within its element budget, or
  within their largest borrower, at any frame size and lane count;
* one frame's transient peak stays below the cascade maps of all its
  levels, because the executor runs one level at a time and drops each
  level's pixels and maps before building the next: above what the
  workspace retains, it is at most one level-0 map set and one level
  image, plus, on the reference, its dense stage's boolean-index gather
  of one anchor grid;
* one frame's octave chain peaks at the anti-alias filter's two pass
  outputs and one band scratch above the octave stacks: the filter
  reads its reflected borders from the source and accumulates each
  tap's products through the band, with no padded copy and no
  full-size product per tap;
* a masked walk over every anchor of a level (the ``fast`` policy after
  a scene cut) peaks at its maps plus one survivor chunk's corner
  gather and index, not at a gather sized by the survivor count;
* an engine result is slim: it pickles to at most 64 KB per frame,
  which is what a process worker sends back;
* the cascade is compiled once, with one group layout, and nothing
  cascade-sized is kept per pyramid level: corner offsets are bound
  into the arena per kernel call.
"""

import gc
import pickle
import re
import sys
import tracemalloc
import weakref
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

import repro.backend.vectorized as vectorized
import repro.image.filtering as filtering
from repro.backend import get_backend
from repro.backend.base import BORROWED_SLOTS, SPARSE_THRESHOLD, ScratchArena
from repro.backend.compiled import GroupLayout, compile_cascade
from repro.detect.devicebatch import _build_octaves, _Geometry
from repro.detect.engine import DetectionEngine
from repro.detect.fastpath import FastpathConfig
from repro.detect.kernels import CascadeLaunchTemplate, cascade_launch_costs
from repro.detect.pipeline import FaceDetectionPipeline, PipelineConfig
from repro.detect.shard import run_group
from repro.detect.windows import BlockMapping
from repro.haar.cascade import Cascade
from repro.obs.tracer import NULL_TRACER
from repro.video.stream import synthetic_stream
from repro.zoo import quick_cascade

SHAPE = (270, 480)
#: the serving mix: five frame shapes, 42 distinct pyramid level widths
MIXED_SHAPES = ((96, 96), (120, 160), (180, 240), (240, 320), (270, 480))
#: twenty more shapes, none larger than the mix, so no arena buffer grows
FURTHER_SHAPES = tuple((64 + 7 * k, 80 + 9 * k) for k in range(20))
#: pickled bytes one engine result may take per 480x270 frame
RESULT_BUDGET = 64 * 1024
#: the fast-path cache's replay state next to its pixels, detections and
#: histograms: the cached frame's launches and schedule
REPLAY_BUDGET = 256 * 1024

_DESIGN = Path(__file__).resolve().parents[2] / "DESIGN.md"


@pytest.fixture(scope="module")
def cascade():
    return quick_cascade(seed=0)


@pytest.fixture(scope="module")
def frames():
    height, width = SHAPE
    return [
        packet.luma.astype(np.float32)
        for packet in synthetic_stream(width, height, 3, faces=2, seed=3)
    ]


def _pipeline(cascade, backend, fastpath):
    return FaceDetectionPipeline(
        cascade, config=PipelineConfig(backend=backend, fastpath=fastpath)
    )


def _traced(fn):
    """``(live bytes, peak bytes, result)`` of ``fn()`` under tracemalloc.

    Live bytes are what is still allocated once ``fn`` returned (its
    result included); both are relative to the start.
    """
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        gc.collect()
        live, peak = tracemalloc.get_traced_memory()
        return live - base, peak - base, result
    finally:
        tracemalloc.stop()


def _one_level_scratch(pipeline, image) -> int:
    """Bytes of one largest-level scratch set.

    Every kernel that takes scratch runs once over a full-frame level
    (``image``, textured, so the reference's sparse stages run too) on a
    fresh arena; no pyramid level is larger than the frame.
    """
    height, width = SHAPE
    config = pipeline.config
    backend = pipeline.backend
    arena = ScratchArena()
    backend.make_bilinear_plan(height, width, height, width, arena=arena).apply(image)
    ii, sqii = backend.make_integral_plan(height, width, arena=arena).compute(image)
    mapping = BlockMapping(
        level_width=width,
        level_height=height,
        window=config.pyramid.window,
    )
    evaluator = backend.make_cascade_evaluator(pipeline.cascade, mapping, arena=arena)
    maps = evaluator.evaluate(ii, sqii)
    template = CascadeLaunchTemplate(
        cascade_launch_costs(pipeline.cascade), mapping, 1, arena=arena
    )
    template.build(maps.depth_map)
    return arena.nbytes


@pytest.mark.parametrize(
    "workers, sharding, batched, device_batch",
    [
        (2, "threads", True, 8),  # the stream bench's engine
        (2, "threads", False, None),
        (2, "processes", True, 4),
        (0, "threads", True, 4),
    ],
    ids=["threads-batched", "threads-unbatched", "processes-batched", "inline-batched"],
)
def test_stream_keeps_fewer_than_max_in_flight_frames_alive(
    cascade, workers, sharding, batched, device_batch
):
    """At every pull, fewer than ``max_in_flight`` earlier frames are
    alive: the engine lets go of a group once its job completes, before
    it pulls the next group's frames."""
    pipeline = _pipeline(cascade, "vectorized", "exact")
    rng = np.random.default_rng(26)
    refs: list[weakref.ref] = []
    alive: list[int] = []

    def source():
        for _ in range(27):
            alive.append(sum(ref() is not None for ref in refs))
            frame = rng.random((72, 96), dtype=np.float32) * np.float32(255.0)
            refs.append(weakref.ref(frame))
            yield frame

    with DetectionEngine(
        pipeline,
        workers=workers,
        sharding=sharding,
        batch_across_frames=batched,
        device_batch=device_batch,
    ) as engine:
        emitted = sum(1 for _ in engine.process_frames(source()))
        bound = engine.max_in_flight
    assert emitted == len(refs) == 27
    assert max(alive) < bound, (max(alive), bound)


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_workspace_holds_one_scratch_set_plus_the_fastpath_cache(
    cascade, frames, backend
):
    pipeline = _pipeline(cascade, backend, "exact")
    scratch = _one_level_scratch(pipeline, frames[0])
    # warm the per-cascade caches every geometry shares, then price the
    # frame-independent plans of one 480x270 geometry on their own
    _Geometry(pipeline, pipeline.backend, SHAPE, ScratchArena())
    plans, _, _ = _traced(
        lambda: _Geometry(pipeline, pipeline.backend, SHAPE, ScratchArena())
    )

    def stream():
        workspace = pipeline.make_workspace()
        for frame in frames:
            workspace.process_frame(frame)
        return workspace

    live, _, workspace = _traced(stream)
    caches = workspace._fp_states[SHAPE].caches
    cache = sum(
        level.image.nbytes + _raw_bytes(level.raw) + level.result.rejections_by_depth.nbytes
        for level in caches
    )
    assert all(_cached_maps(level) == set() for level in caches)
    # the octave chain's lane stacks, kept from frame to frame
    octaves = workspace._geometries[SHAPE].octaves.nbytes
    # plans stay well below one scratch set of three anchor grids
    assert plans <= scratch // 5
    assert workspace._arena.nbytes <= scratch
    bound = scratch + cache + plans + octaves + REPLAY_BUDGET
    assert live <= bound, (live, scratch, cache, plans, octaves)


def _raw_bytes(raw) -> int:
    """Bytes of one level's cached detection list and its objects."""
    return sys.getsizeof(raw) + sum(
        sys.getsizeof(d) + sum(sys.getsizeof(v) for v in astuple(d)) for d in raw
    )


def _cached_maps(level) -> set[str]:
    return {
        name
        for name in ("depth_map", "margin_map", "sigma_map")
        if getattr(level.result, name) is not None
    }


@pytest.mark.parametrize(
    "policy, keep_maps, maps",
    [
        ("exact", False, set()),
        # dirty-anchor carry-forward reads depth and margin; sigma is recomputed
        ("fast", False, {"depth_map", "margin_map"}),
        ("exact", True, {"depth_map", "margin_map", "sigma_map"}),
        ("fast", True, {"depth_map", "margin_map", "sigma_map"}),
    ],
)
def test_fastpath_cache_keeps_what_its_policy_reads(
    cascade, frames, policy, keep_maps, maps
):
    fastpath = FastpathConfig(policy=policy, min_sigma=0.0)
    workspace = _pipeline(cascade, "vectorized", fastpath).make_workspace(keep_maps=keep_maps)
    edited = frames[0].copy()
    edited[200:] += np.float32(1.0)
    for frame in (frames[0], edited, edited):
        workspace.process_frame(frame)
    caches = workspace._fp_states[SHAPE].caches
    for level in caches:
        assert _cached_maps(level) == maps
        assert level.result.launch is not None and level.raw is not None


def _documented_arena_table() -> dict[str, tuple[str, set[str]]]:
    """``{owner slot: (bytes cell, borrowing names)}`` of the DESIGN §7
    arena table."""
    section = _DESIGN.read_text().split("## 7.", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([a-z_0-9.]+)` \|(.*)$", section, flags=re.MULTILINE)
    table = {}
    for slot, row in rows:
        nbytes, borrowers = row.rsplit("|", 3)[-3:-1]
        # the borrowers are the backticked scratch names of the last cell
        table[slot] = (nbytes, set(re.findall(r"`([a-z_0-9]+\.[a-z_0-9]+)`", borrowers)))
    return table


def _documented_bytes(cell: str, backend: str, cascade) -> int | None:
    """One backend's bytes from a ``vectorized / reference`` bytes cell:
    ``—`` is a slot the backend never takes, and ``32 R`` the corner
    offsets of ``cascade``'s R rectangles."""
    value = cell.split("/")[0 if backend == "vectorized" else 1].strip()
    if value == "—":
        return None
    if value.startswith("32 R"):
        return 32 * compile_cascade(cascade).num_rects
    return int(value.replace(",", ""))


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_arena_holds_the_documented_buffers(cascade, frames, backend):
    pipeline = _pipeline(cascade, backend, "exact")
    workspace = pipeline.make_workspace()
    for frame in frames:
        workspace.process_frame(frame)
    arena = workspace._arena
    table = _documented_arena_table()
    borrowed = {name: owner for owner, (_, names) in table.items() for name in names}
    assert borrowed == BORROWED_SLOTS
    documented = {
        slot: _documented_bytes(cell, backend, cascade) for slot, (cell, _) in table.items()
    }
    held = {slot: buf.nbytes for slot, buf in arena._buffers.items()}
    assert held == {slot: n for slot, n in documented.items() if n is not None}
    assert arena.nbytes <= _arena_bound(pipeline, backend), arena.nbytes


def _arena_bound(pipeline, backend: str) -> int:
    """Bytes of the DESIGN §7 owner slots for one 480x270 lane.

    Every bound is from the frame shape: no level, panel or grid is
    larger.  A slot is as large as the largest name on it.  The
    reference's dense slots are anchor grids; ``vectorized``'s hold its
    element budget, one anchor-row chunk or survivor chunk.
    """
    height, width = SHAPE
    config = pipeline.config
    m = BlockMapping(
        level_width=width,
        level_height=height,
        window=config.pyramid.window,
    )
    anchors = m.anchors_y * m.anchors_x
    f64, f32, i32, i64 = 8, 4, 4, 8
    pad = (m.blocks_y * m.block_h) * (m.blocks_x * m.block_w) * i32
    dense = anchors if backend == "reference" else vectorized._GROUP_ELEMS
    bound = (
        # tmp and vals, each also a bilinear grid and a launch pad
        2 * max(dense * f64, height * width * f32, pad)
        + dense * f64  # sums
        + dense  # mask
        # ii and sqii, also the bilinear row panel and top lerp
        + 2 * max((height + 1) * (width + 1) * f64, height * width * f32)
        + 2 * anchors  # alive, passed
        + compile_cascade(pipeline.cascade).num_rects * 4 * i64  # offsets
    )
    if backend == "reference":
        # five 8-byte vectors and one flag vector, sized by the switch point
        nmax = int(max(64, SPARSE_THRESHOLD * anchors)) + 1
        bound += nmax * (5 * f64 + 1)
    return bound


#: vectorized's dense slots; their borrowers are in :data:`BORROWED_SLOTS`
_DENSE_SLOTS = ("cascade.tmp", "cascade.vals", "cascade.sums", "cascade.mask")
#: the float64 and int64 chunks the cascade itself takes
_CHUNK_NAMES = ("cascade.tmp", "cascade.vals", "cascade.sums", "cascade.gather", "cascade.index")


def test_dense_slots_stay_within_the_budget(cascade, monkeypatch):
    """``vectorized``'s dense slots hold one chunk of its element budget
    (an anchor-row chunk, or a survivor chunk's gather and index), or
    their largest borrower's request if that is larger — after a
    480x270 frame, a 960x540 one and a fused N=3 batch alike; none
    grows with the level or the lane count."""
    pipeline = _pipeline(cascade, "vectorized", "off")
    workspace = pipeline.make_workspace()
    arena = workspace._arena
    requests: dict[str, int] = {}
    take = arena.take

    def recording(name, shape, dtype):
        view = take(name, shape, dtype)
        requests[name] = max(requests.get(name, 0), view.nbytes)
        return view

    monkeypatch.setattr(arena, "take", recording)
    budget = vectorized._GROUP_ELEMS
    for (height, width), lanes in (((270, 480), 1), ((540, 960), 1), ((270, 480), 3)):
        batch = [
            packet.luma.astype(np.float32)
            for packet in synthetic_stream(width, height, lanes, faces=2, seed=lanes)
        ]
        workspace.process_batch(batch)
        for slot in _DENSE_SLOTS:
            itemsize = 1 if slot == "cascade.mask" else 8
            borrowed = [requests.get(n, 0) for n, owner in BORROWED_SLOTS.items() if owner == slot]
            limit = max([budget * itemsize, *borrowed])
            assert arena._buffers[slot].nbytes <= limit, (slot, height, width, lanes)
        # the cascade's own requests, survivor gathers included, are one chunk
        for name in _CHUNK_NAMES:
            assert requests[name] <= budget * 8, (name, requests[name])
        assert requests["cascade.mask"] <= budget


def test_fused_batch_stacks_live_in_the_arena(cascade):
    """A fused N=3 batch takes its level stacks from the arena.

    The stacked bilinear, integral and cascade scratch are arena buffers
    sized to three lanes, so after batches of every serving shape the
    arena holds at most three single-lane sets.  Nothing else of a level
    is stacked: one batch of the largest shape peaks below the three
    lanes' cascade maps of all its levels, the N=3 form of
    :func:`test_frame_peak_stays_below_all_levels_maps`.
    """
    lanes = 3
    pipeline = _pipeline(cascade, "vectorized", "off")
    workspace = pipeline.make_workspace()
    for seed, (height, width) in enumerate(MIXED_SHAPES):
        batch = [
            packet.luma.astype(np.float32)
            for packet in synthetic_stream(width, height, lanes, faces=2, seed=seed)
        ]
        assert workspace.process_batch(batch).fused
    assert workspace._arena.nbytes <= lanes * _arena_bound(pipeline, "vectorized")

    height, width = SHAPE
    batch = [
        packet.luma.astype(np.float32)
        for packet in synthetic_stream(width, height, lanes, faces=2, seed=lanes)
    ]
    all_maps = sum(
        kr.depth_map.nbytes + kr.margin_map.nbytes + kr.sigma_map.nbytes
        for frame in batch
        for kr in pipeline.process_frame(frame).kernel_results
    )
    _, peak, _ = _traced(lambda: workspace.process_batch(batch))
    assert peak < all_maps, (peak, all_maps)


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_frame_peak_stays_below_all_levels_maps(cascade, frames, backend):
    pipeline = _pipeline(cascade, backend, "off")
    full = pipeline.process_frame(frames[1])
    all_maps = sum(
        kr.depth_map.nbytes + kr.margin_map.nbytes + kr.sigma_map.nbytes
        for kr in full.kernel_results
    )
    del full
    workspace = pipeline.make_workspace()
    workspace.process_frame(frames[0])  # plans and arena in place
    _, peak, _ = _traced(lambda: workspace.process_frame(frames[1]))
    assert peak < all_maps, (peak, all_maps)


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_frame_peak_is_one_level(cascade, frames, backend):
    """Above what the workspace retains, one frame peaks at one level:
    level 0's depth/margin/sigma maps and one level image.  Kernel
    scratch is the arena's, launch pricing reduces warps in the arena's
    pads and the rejection histogram counts in chunks, so no kernel
    transient is allowed — except the reference's dense-stage margin
    write, a boolean-index gather of one float64 anchor grid.  A level
    whose pixels or maps outlive it into the next level's kernels
    breaks it."""
    pipeline = _pipeline(cascade, backend, "off")
    level0 = pipeline.process_frame(frames[1]).kernel_results[0]
    maps = level0.depth_map.nbytes + level0.margin_map.nbytes + level0.sigma_map.nbytes
    gather = level0.margin_map.nbytes if backend == "reference" else 0
    del level0
    workspace = pipeline.make_workspace()
    workspace.process_frame(frames[0])  # plans and arena in place
    _, peak, _ = _traced(lambda: workspace.process_frame(frames[1]))
    bound = maps + frames[1].nbytes + gather
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_octave_chain_peaks_at_two_frames_and_a_band(cascade, frames, backend):
    """Above its octave stacks, one frame's octave chain peaks at the
    level-0 anti-alias: its two pass outputs and one band scratch, plus
    32 KiB for the filter's tap index vectors and small objects.  A
    reflect-padded copy of the frame, or one full-size product per tap,
    breaks it."""
    pipeline = _pipeline(cascade, backend, "off")
    workspace = pipeline.make_workspace()
    workspace.process_frame(frames[0])  # plans and octave stacks in place
    geo = workspace._geometries[SHAPE]
    stack = frames[1][None]
    _, peak, octaves = _traced(
        lambda: _build_octaves(geo, stack, pipeline.backend, NULL_TRACER)
    )
    assert len(octaves) > 2
    bound = 2 * frames[1].nbytes + filtering._BAND_ELEMS * 4 + (32 << 10)
    assert peak <= bound, (peak, bound)


class TestSlimResults:
    def test_engine_results_pickle_small(self, cascade, frames):
        pipeline = _pipeline(cascade, "reference", "off")
        with DetectionEngine(pipeline, workers=0) as engine:
            results = list(engine.process_frames(iter(frames)))
        for result in results:
            assert len(pickle.dumps(result)) <= RESULT_BUDGET
        # one worker job's reply, as a process worker pickles it back
        for frame in frames:
            reply = run_group(0, [frame], None, 0.0, workspace=pipeline.make_workspace())
            assert len(pickle.dumps(reply)) <= RESULT_BUDGET

    def test_engine_results_keep_geometry_and_histograms(self, cascade, frames):
        pipeline = _pipeline(cascade, "reference", "off")
        reference = pipeline.process_frame(frames[0])
        with DetectionEngine(pipeline, workers=0) as engine:
            (result,) = engine.process_frames(iter(frames[:1]))
        assert len(result.levels) == len(reference.levels)
        for got, want in zip(result.levels, reference.levels):
            assert got.image is None
            assert (got.index, got.scale, got.width, got.height) == (
                want.index, want.scale, want.width, want.height,
            )
        for got, want in zip(result.kernel_results, reference.kernel_results):
            assert got.depth_map is None and got.launch is None
            assert got.mapping == want.mapping
            assert np.array_equal(got.rejections_by_depth, want.rejections_by_depth)
        n_stages = pipeline.cascade.num_stages
        assert np.array_equal(
            result.rejection_matrix(n_stages), reference.rejection_matrix(n_stages)
        )


def test_masked_walk_over_every_anchor_is_bounded(cascade, frames):
    """``fast`` after a scene cut: ``evaluate_masked`` with every anchor of
    a 480x270 level active, called as the fast path calls it (with its
    screen's sigma grid).  The survivors are walked in chunks, so the
    peak is the level's maps, one chunk's gather and index, and the
    survivor list, whatever the survivor count."""
    height, width = SHAPE
    backend = get_backend("vectorized")
    arena = ScratchArena()
    ii, sqii = backend.make_integral_plan(height, width, arena=arena).compute(frames[0])
    mapping = BlockMapping(level_width=width, level_height=height)
    evaluator = backend.make_cascade_evaluator(cascade, mapping, arena=arena)
    sigma = evaluator.window_sigma(ii, sqii)
    active = np.ones(sigma.shape, dtype=bool)
    evaluator.evaluate_masked(ii, sqii, active, sigma=sigma)  # arena in place
    _, peak, maps = _traced(lambda: evaluator.evaluate_masked(ii, sqii, active, sigma=sigma))
    level_maps = maps.depth_map.nbytes + maps.margin_map.nbytes + maps.sigma_map.nbytes
    bound = level_maps + 2 * vectorized._GROUP_ELEMS * 8 + (1 << 20)
    assert peak <= bound, (peak, bound)


def _long_cascade(cascade) -> Cascade:
    """A fresh cascade as large as ``paper`` (4312 vs 4409 rectangles):
    the quick cascade's stages seven times over, so one offset table
    outweighs a level's frame-independent plans."""
    return Cascade(stages=cascade.stages * 7, name="long")


def _feed(workspace, shapes) -> int:
    """Pyramid levels the workspace holds after one blank frame per shape."""
    for shape in shapes:
        workspace.process_frame(np.zeros(shape, dtype=np.float32))
    return sum(len(geo.levels) for geo in workspace._geometries.values())


@pytest.mark.parametrize("backend", ["reference", "vectorized", "arrayapi"])
def test_one_layout_and_no_cascade_sized_array_per_level(cascade, backend):
    pipeline = _pipeline(_long_cascade(cascade), backend, "off")
    workspace = pipeline.make_workspace()
    _feed(workspace, MIXED_SHAPES)
    compiled = compile_cascade(pipeline.cascade)
    table = compiled.num_rects * 4 * np.dtype(np.int64).itemsize
    for geo in workspace._geometries.values():
        for level in geo.levels:
            held = [v for v in vars(level.evaluator).values() if isinstance(v, np.ndarray)]
            assert all(array.nbytes < table for array in held)
    layouts = [v for v in vars(compiled).values() if isinstance(v, GroupLayout)]
    assert layouts == [compiled.layout]


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_new_levels_retain_less_than_an_offset_table_each(cascade, backend):
    pipeline = _pipeline(_long_cascade(cascade), backend, "off")
    workspace = pipeline.make_workspace()
    before = _feed(workspace, MIXED_SHAPES)
    grown, _, after = _traced(lambda: _feed(workspace, FURTHER_SHAPES))
    table = compile_cascade(pipeline.cascade).num_rects * 4 * np.dtype(np.int64).itemsize
    assert after - before >= len(FURTHER_SHAPES)
    assert grown < (after - before) * table, (grown, after - before, table)
