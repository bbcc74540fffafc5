"""Two-tier fast path: config resolution, differ units, byte identity.

The load-bearing guarantee is the ``exact`` policy: reuse happens only
on bit-equal pixels, so output must be byte-identical to the baseline
pipeline on every stream shape — cold caches, repeated frames, scene
cuts — on both compute backends and under every sharding mode.  The
``fast`` policy is approximate by design and is tested for its
*accounting* (carry/prune counters) and for recall and precision
against ``exact`` (>= 0.99 each) on a held synthetic trailer stream.
"""

import numpy as np
import pytest

from repro.detect.engine import DetectionEngine
from repro.detect.fastpath import (
    ENV_VAR,
    FastpathConfig,
    FastpathFrameStats,
    FastpathPolicy,
    dirty_window_mask,
    expand_tile_mask,
    resolve_fastpath,
    tile_reduce_any,
    tile_reduce_max,
)
from repro.detect.pipeline import FaceDetectionPipeline, PipelineConfig
from repro.errors import ConfigurationError
from repro.gpusim.scheduler import ExecutionMode
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import build_snapshot
from repro.utils.rng import rng_for
from repro.video.synthesis import render_scene
from repro.video.trailer import trailer_frames
from repro.zoo import quick_cascade


@pytest.fixture(scope="module")
def cascade():
    return quick_cascade(seed=0)


@pytest.fixture(scope="module")
def scenes():
    """Two distinct deterministic scenes at a small, fast size."""
    f1, _ = render_scene(128, 96, faces=1, rng=rng_for(3, "fastpath-test", 0))
    f2, _ = render_scene(128, 96, faces=1, rng=rng_for(3, "fastpath-test", 1))
    return f1, f2


def _detections(result):
    return [(d.x, d.y, d.size, d.score) for d in result.raw_detections]


def _assert_frame_identical(reference, candidate):
    """Detections, schedule and maps; ``candidate`` must keep its maps."""
    assert _detections(reference) == _detections(candidate)
    assert reference.schedule.makespan_s == candidate.schedule.makespan_s
    assert len(reference.kernel_results) == len(candidate.kernel_results)
    for kr, kc in zip(reference.kernel_results, candidate.kernel_results):
        assert kc.depth_map is not None
        assert np.array_equal(kr.depth_map, kc.depth_map)
        assert np.array_equal(kr.margin_map, kc.margin_map)


class TestConfigResolution:
    def test_coerce_accepts_names_and_policies(self):
        assert FastpathPolicy.coerce("fast") is FastpathPolicy.FAST
        assert FastpathPolicy.coerce("EXACT") is FastpathPolicy.EXACT
        assert FastpathPolicy.coerce(FastpathPolicy.OFF) is FastpathPolicy.OFF

    def test_coerce_rejects_unknown_policy(self):
        with pytest.raises(ConfigurationError, match="unknown fastpath policy"):
            FastpathPolicy.coerce("turbo")

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "fast")
        assert resolve_fastpath("exact").policy is FastpathPolicy.EXACT
        explicit = FastpathConfig(policy=FastpathPolicy.OFF)
        assert resolve_fastpath(explicit) is explicit

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "exact")
        assert resolve_fastpath(None).policy is FastpathPolicy.EXACT
        monkeypatch.delenv(ENV_VAR)
        assert resolve_fastpath(None).policy is FastpathPolicy.OFF

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            FastpathConfig(min_sigma=-1.0)
        with pytest.raises(ConfigurationError):
            FastpathConfig(policy="turbo")

    def test_pipeline_config_accepts_policy_string(self, cascade, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        pipeline = FaceDetectionPipeline(
            cascade, config=PipelineConfig(fastpath="fast")
        )
        assert pipeline.fastpath.policy is FastpathPolicy.FAST
        off = FaceDetectionPipeline(cascade)
        assert off.fastpath.policy is FastpathPolicy.OFF


class TestGridHelpers:
    def test_dirty_window_mask_matches_brute_force(self):
        rng = np.random.default_rng(11)
        changed = rng.random((40, 56)) < 0.03
        window = 24
        ay, ax = 40 - window + 1, 56 - window + 1
        mask = dirty_window_mask(changed, window, ay, ax)
        for y in range(ay):
            for x in range(ax):
                expected = bool(changed[y : y + window, x : x + window].any())
                assert mask[y, x] == expected, (y, x)

    def test_motion_straddling_tile_boundaries_dirties_both_sides(self):
        # one changed pixel exactly on a 16-anchor tile boundary must
        # dirty every window whose footprint sees it — including the
        # windows on the *other* side of the boundary
        changed = np.zeros((64, 64), dtype=bool)
        changed[16, 16] = True
        window = 8
        ay = ax = 64 - window + 1
        mask = dirty_window_mask(changed, window, ay, ax)
        ys, xs = np.nonzero(mask)
        assert ys.min() == 16 - window + 1 and ys.max() == 16
        assert xs.min() == 16 - window + 1 and xs.max() == 16
        # windows straddle the tile edge on both sides of anchor 16
        tiles = tile_reduce_any(mask, 16)
        assert tiles[0, 0] and tiles[1, 1] and tiles[0, 1] and tiles[1, 0]

    def test_tile_reduce_and_expand_round_trip(self):
        values = np.arange(20.0 * 18).reshape(20, 18)
        tiles = tile_reduce_max(values, 16)
        assert tiles.shape == (2, 2)
        assert tiles[0, 0] == values[:16, :16].max()
        assert tiles[1, 1] == values[16:, 16:].max()
        keep = tiles >= tiles[1, 1]
        expanded = expand_tile_mask(keep, 16, 20, 18)
        assert expanded.shape == (20, 18)
        assert expanded[19, 17] and not expanded[0, 0]

    @pytest.mark.parametrize("shape", [(247, 457), (16, 16), (17, 33), (5, 40), (1, 1)])
    def test_tile_reductions_match_padded_tiles(self, shape):
        """Per-tile max and any() equal those of the grid padded to whole
        tiles (with ``-inf`` and ``False``) and reduced tile by tile."""
        rng = rng_for(4, "tile-reductions", *shape)
        values = rng.uniform(1.0, 50.0, shape)
        mask = rng.random(shape) < 0.01
        ty, tx = -(-shape[0] // 16), -(-shape[1] // 16)

        def padded(grid, fill):
            tiles = np.full((ty * 16, tx * 16), fill, dtype=grid.dtype)
            tiles[: shape[0], : shape[1]] = grid
            return tiles.reshape(ty, 16, tx, 16)

        want = padded(values, -np.inf).max(axis=(1, 3))
        assert tile_reduce_max(values, 16).tobytes() == want.tobytes()
        assert np.array_equal(tile_reduce_any(mask, 16), padded(mask, False).any(axis=(1, 3)))


class TestTemporalCache:
    def test_first_frame_is_fully_dirty(self, cascade, scenes):
        ws = FaceDetectionPipeline(
            cascade, config=PipelineConfig(fastpath="exact")
        ).make_workspace()
        stats = ws.process_frame(scenes[0]).fastpath
        assert stats.frames_reused == 0
        assert stats.levels_reused == 0
        assert stats.anchors_carried == 0
        assert stats.anchors_evaluated == stats.anchors > 0

    def test_repeated_frame_reuses_everything(self, cascade, scenes):
        ws = FaceDetectionPipeline(
            cascade, config=PipelineConfig(fastpath="exact")
        ).make_workspace(keep_maps=True)
        first = ws.process_frame(scenes[0])
        second = ws.process_frame(scenes[0])
        stats = second.fastpath
        assert stats.frames_reused == 1
        assert stats.anchors_evaluated == 0
        assert stats.anchors_carried == stats.anchors
        _assert_frame_identical(first, second)

    def test_scene_cut_invalidates_the_cache(self, cascade, scenes):
        baseline = FaceDetectionPipeline(
            cascade, config=PipelineConfig(fastpath="off")
        )
        ws = FaceDetectionPipeline(
            cascade, config=PipelineConfig(fastpath="exact")
        ).make_workspace(keep_maps=True)
        ws.process_frame(scenes[0])
        cut = ws.process_frame(scenes[1])
        assert cut.fastpath.frames_reused == 0
        _assert_frame_identical(baseline.process_frame(scenes[1]), cut)

    def test_fast_carries_clean_regions_forward(self, cascade, scenes):
        # a localised edit: only windows whose footprint sees the dirty
        # rectangle re-evaluate; everything else carries forward
        ws = FaceDetectionPipeline(
            cascade, config=PipelineConfig(fastpath="fast")
        ).make_workspace()
        ws.process_frame(scenes[0])
        edited = np.array(scenes[0], copy=True)
        edited[40:48, 60:68] += 25.0
        stats = ws.process_frame(edited).fastpath
        assert stats.anchors_carried > 0
        assert 0 < stats.anchors_evaluated < stats.anchors
        assert (
            stats.anchors_evaluated + stats.anchors_carried + stats.anchors_pruned
            <= stats.anchors
        )

    def test_fast_equals_exact_on_a_static_stream(self, cascade, scenes):
        exact_ws = FaceDetectionPipeline(
            cascade, config=PipelineConfig(fastpath="exact")
        ).make_workspace()
        fast_ws = FaceDetectionPipeline(
            cascade, config=PipelineConfig(fastpath="fast")
        ).make_workspace()
        for frame in (scenes[0], scenes[0], scenes[0]):
            e = exact_ws.process_frame(frame)
            f = fast_ws.process_frame(frame)
            assert _detections(e) == _detections(f)

    def test_stream_none_disables_temporal_reuse(self, cascade, scenes):
        pipeline = FaceDetectionPipeline(
            cascade, config=PipelineConfig(fastpath="exact")
        )
        ws = pipeline.make_workspace(stream=None)
        assert ws.stream is None
        for _ in range(2):
            stats = ws.process_frame(scenes[0]).fastpath
            assert stats.frames_reused == 0
            assert stats.anchors_carried == 0


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
class TestExactByteIdentity:
    def _frames(self, scenes):
        f1, f2 = scenes
        # repeats, a scene cut, and a return to a seen frame: every
        # cache path (cold, hit, invalidate, re-fill) is on this stream
        return [f1, f1, f2, f2, f2, f1]

    def test_serial_workspace(self, backend, cascade, scenes):
        baseline = FaceDetectionPipeline(
            cascade, config=PipelineConfig(backend=backend, fastpath="off")
        )
        ws = FaceDetectionPipeline(
            cascade, config=PipelineConfig(backend=backend, fastpath="exact")
        ).make_workspace(keep_maps=True)
        for frame in self._frames(scenes):
            _assert_frame_identical(
                baseline.process_frame(frame), ws.process_frame(frame)
            )

    def test_threaded_engine(self, backend, cascade, scenes):
        baseline = FaceDetectionPipeline(
            cascade, config=PipelineConfig(backend=backend, fastpath="off")
        )
        exact = FaceDetectionPipeline(
            cascade, config=PipelineConfig(backend=backend, fastpath="exact")
        )
        frames = self._frames(scenes)
        reference = [baseline.process_frame(f) for f in frames]
        with DetectionEngine(exact, workers=2, sharding="threads") as engine:
            results = list(engine.process_frames(iter(frames)))
        for r, c in zip(reference, results):
            assert _detections(r) == _detections(c)


class TestExactByteIdentityProcesses:
    def test_process_sharded_engine(self, cascade, scenes):
        """Each spawn worker owns its own delta cache; identity must
        survive frames of one stream interleaving across workers."""
        baseline = FaceDetectionPipeline(
            cascade, config=PipelineConfig(fastpath="off")
        )
        exact = FaceDetectionPipeline(
            cascade, config=PipelineConfig(fastpath="exact")
        )
        frames = [scenes[0], scenes[0], scenes[1], scenes[0]]
        reference = [baseline.process_frame(f) for f in frames]
        with DetectionEngine(exact, workers=2, sharding="processes") as engine:
            results = list(engine.process_frames(iter(frames)))
        for r, c in zip(reference, results):
            assert _detections(r) == _detections(c)


def _assert_slim_identical(reference, candidate):
    """Detections, schedule and histograms of a slim result, byte for byte."""
    assert _detections(reference) == _detections(candidate)
    assert reference.schedule.makespan_s == candidate.schedule.makespan_s
    assert len(reference.kernel_results) == len(candidate.kernel_results)
    for kr, kc in zip(reference.kernel_results, candidate.kernel_results):
        assert kc.depth_map is None
        assert kr.rejections_by_depth.tobytes() == kc.rejections_by_depth.tobytes()


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
class TestSlimCacheReplay:
    """The slim temporal cache keeps no ``exact`` maps and no ``fast``
    sigma; every path that replays from it must still match a
    ``keep_maps=True`` workspace, which caches everything."""

    def _workspaces(self, cascade, backend, fastpath):
        pipeline = FaceDetectionPipeline(
            cascade, config=PipelineConfig(backend=backend, fastpath=fastpath)
        )
        return pipeline.make_workspace(keep_maps=True), pipeline.make_workspace()

    def test_frame_hit_under_an_uncached_mode_groups_from_cached_raws(
        self, backend, cascade, scenes
    ):
        baseline = FaceDetectionPipeline(
            cascade, config=PipelineConfig(backend=backend, fastpath="off")
        )
        full, slim = self._workspaces(cascade, backend, "exact")
        for mode in (ExecutionMode.CONCURRENT, ExecutionMode.SERIAL):
            want = full.process_frame(scenes[0], mode)
            got = slim.process_frame(scenes[0], mode)
            _assert_frame_identical(baseline.process_frame(scenes[0], mode), want)
            _assert_slim_identical(want, got)
            assert got.fastpath == want.fastpath
        # the SERIAL frame hit every level but had no schedule to replay
        assert got.fastpath.frames_reused == 1
        assert slim._fp_states[scenes[0].shape].schedules.keys() == set(ExecutionMode)

    def test_fast_carry_forward_sequence(self, backend, cascade, scenes):
        full, slim = self._workspaces(cascade, backend, "fast")
        edited = np.array(scenes[0], copy=True)
        edited[40:48, 60:68] += 25.0
        moved = np.array(edited, copy=True)
        moved[10:20, 90:110] -= 15.0
        for frame in (scenes[0], edited, edited, moved, scenes[1], scenes[1]):
            want = full.process_frame(frame)
            got = slim.process_frame(frame)
            _assert_slim_identical(want, got)
            assert got.fastpath == want.fastpath
        assert got.fastpath.frames_reused == 1


class TestSlimCacheReplayProcesses:
    def test_process_sharded_engine_matches_keep_maps(self, cascade, scenes):
        """Each spawn worker replays from its own slim cache."""
        baseline = FaceDetectionPipeline(
            cascade, config=PipelineConfig(fastpath="off")
        )
        exact = FaceDetectionPipeline(
            cascade, config=PipelineConfig(fastpath="exact")
        )
        full = exact.make_workspace(keep_maps=True)
        frames = [scenes[0], scenes[0], scenes[1], scenes[0], scenes[0], scenes[1]]
        reference = [full.process_frame(f) for f in frames]
        for frame, want in zip(frames, reference):
            _assert_frame_identical(baseline.process_frame(frame), want)
        with DetectionEngine(exact, workers=2, sharding="processes") as engine:
            results = list(engine.process_frames(iter(frames)))
        assert len(results) == len(frames)
        for want, got in zip(reference, results):
            _assert_slim_identical(want, got)


def _positions(result):
    """Detections keyed by (x, y, size): a carried detection keeps its
    previous margin, so ``fast`` is scored on position and size only."""
    return {(d.x, d.y, d.size) for d in result.raw_detections}


def _merged(results, policy):
    merged = FastpathFrameStats(policy=policy)
    for result in results:
        merged.merge(result.fastpath)
    return merged


class TestFastRecallOnATrailer:
    """``fast`` against ``exact`` on a held trailer stream, both warm."""

    def test_fast_keeps_exact_detections(self, cascade):
        lumas = [
            frame
            for frame, _faces in trailer_frames("50/50", 256, 192, 12, seed=0)
            for _ in range(2)
        ]
        exact_ws = FaceDetectionPipeline(
            cascade, config=PipelineConfig(backend="vectorized", fastpath="exact")
        ).make_workspace()
        fast = FaceDetectionPipeline(
            cascade, config=PipelineConfig(backend="vectorized", fastpath="fast")
        )
        registry = MetricsRegistry()
        with DetectionEngine(fast, workers=0, metrics=registry) as engine:
            for _ in range(2):  # the first pass warms the temporal caches
                exact_results = [exact_ws.process_frame(luma) for luma in lumas]
                fast_results = list(engine.process_frames(iter(lumas)))

        matched = sum(
            len(_positions(e) & _positions(f))
            for e, f in zip(exact_results, fast_results, strict=True)
        )
        exact_total = sum(len(_positions(e)) for e in exact_results)
        fast_total = sum(len(_positions(f)) for f in fast_results)
        assert exact_total > 0
        assert matched / exact_total >= 0.99, "recall"
        assert matched / fast_total >= 0.99, "precision"

        # exact never prunes: every anchor is evaluated or carried from a
        # bit-identical predecessor
        exact_stats = _merged(exact_results, "exact")
        assert exact_stats.anchors_pruned == 0
        assert (
            exact_stats.anchors_evaluated + exact_stats.anchors_carried
            == exact_stats.anchors
        )
        assert 0.0 <= exact_stats.proposal_recall <= 1.0
        # fast prunes (so the floors are not vacuous), carries, and
        # replays held frames whole
        fast_stats = _merged(fast_results, "fast")
        assert fast_stats.anchors_pruned > 0
        assert fast_stats.anchors_carried > 0
        assert fast_stats.frames_reused > 0
        assert (
            fast_stats.anchors_evaluated
            + fast_stats.anchors_carried
            + fast_stats.anchors_pruned
            <= fast_stats.anchors
        )
        snap = build_snapshot(registry)
        assert snap["counters"]["fastpath.frames"] == 2 * len(lumas)
        assert snap["counters"]["fastpath.anchors"] > 0
        assert "fastpath_evaluated_fraction" in snap


class TestEnginePlumbing:
    def test_engine_forwards_fastpath_stream(self, cascade, scenes, monkeypatch):
        pipeline = FaceDetectionPipeline(
            cascade, config=PipelineConfig(fastpath="exact")
        )
        seen = []
        original = FaceDetectionPipeline.make_workspace

        def recording(self, tracer=None, stream="default"):
            seen.append(stream)
            return original(self, tracer=tracer, stream=stream)

        monkeypatch.setattr(FaceDetectionPipeline, "make_workspace", recording)
        with DetectionEngine(
            pipeline, workers=0, fastpath_stream=None
        ) as engine:
            list(engine.process_frames(iter([scenes[0]])))
        assert seen == [None]

    def test_results_carry_fastpath_stats_only_when_enabled(self, cascade, scenes):
        off = FaceDetectionPipeline(
            cascade, config=PipelineConfig(fastpath="off")
        ).make_workspace()
        assert off.process_frame(scenes[0]).fastpath is None
        on = FaceDetectionPipeline(
            cascade, config=PipelineConfig(fastpath="fast")
        ).make_workspace()
        assert on.process_frame(scenes[0]).fastpath is not None
