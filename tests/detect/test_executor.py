"""The lane-parallel executor against independent oracles and its callers.

Geometry: the executor derives every pyramid level from a cached
``_Geometry`` whose octave loop mirrors ``build_pyramid``'s.  On the
``reference`` backend its levels must byte-equal ``build_pyramid`` and
each level's maps must byte-equal the one-shot ``cascade_eval_kernel``,
on odd and small frame sizes too, for a single lane and a fused batch.
Building a geometry resolves the cascade's launch costs once, not once
per level.

Harness contract: the benchmark harness patches ``process_batch`` on the
workspace class and tags the caller's frame arrays by identity, so the
engine must call it once per frame group, with the caller's arrays and
never nested inside ``process_frame``.
"""

import threading

import numpy as np
import pytest

from repro.backend.base import ScratchArena
from repro.detect.devicebatch import BatchFrameWorkspace, FrameWorkspace, _Geometry
from repro.detect.engine import DetectionEngine
from repro.detect.kernels import cascade_eval_kernel, cascade_launch_costs
from repro.detect.pipeline import FaceDetectionPipeline, PipelineConfig
from repro.errors import ConfigurationError
from repro.image.pyramid import build_pyramid
from repro.utils.rng import rng_for
from repro.video.synthesis import render_scene
from repro.zoo import quick_cascade

#: (width, height): odd, exactly one window, one window wide and tall
SIZES = [(97, 61), (24, 24), (25, 200)]


@pytest.fixture(scope="module")
def cascade():
    return quick_cascade(seed=0)


@pytest.fixture(scope="module")
def reference(cascade):
    return FaceDetectionPipeline(
        cascade, config=PipelineConfig(backend="reference", fastpath="off")
    )


def _frame(width, height, i=0):
    rng = rng_for(7, "executor-geometry", width, height, i)
    return rng.uniform(0.0, 255.0, size=(height, width)).astype(np.float32)


def _lanes(path, pipeline, width, height):
    """``(frame, result)`` pairs from one executor path."""
    if path == "pipeline":
        frame = _frame(width, height)
        return [(frame, pipeline.process_frame(frame))]
    frames = [_frame(width, height, i) for i in range(2)]
    execution = pipeline.make_workspace(keep_maps=True).process_batch(frames)
    assert execution.fused
    return list(zip(frames, execution.results))


def _geometry(level):
    return level.index, level.scale, level.width, level.height


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("path", ["pipeline", "fused N=2"])
@pytest.mark.parametrize("width,height", SIZES)
def test_levels_and_maps_match_one_shot_oracles(reference, path, width, height):
    for frame, result in _lanes(path, reference, width, height):
        oracle = build_pyramid(frame, reference.config.pyramid, backend="reference")
        assert [_geometry(level) for level in result.levels] == [
            _geometry(level) for level in oracle
        ]
        for got, want, kernel in zip(result.levels, oracle, result.kernel_results):
            assert _same_bytes(got.image, want.image)
            one_shot = cascade_eval_kernel(
                want.image,
                reference.cascade,
                want.index + 1,
                mapping=kernel.mapping,
                backend="reference",
            )
            for name in ("depth_map", "margin_map", "sigma_map", "rejections_by_depth"):
                assert _same_bytes(getattr(kernel, name), getattr(one_shot, name)), name


def test_frame_below_the_window_is_rejected_like_build_pyramid(reference):
    frame = _frame(23, 40)
    with pytest.raises(ConfigurationError):
        build_pyramid(frame, reference.config.pyramid, backend="reference")
    with pytest.raises(ConfigurationError):
        reference.process_frame(frame)
    with pytest.raises(ConfigurationError):
        reference.make_workspace().process_batch([frame, frame.copy()])


def test_geometry_resolves_launch_costs_once(reference):
    """Each ``cascade_launch_costs`` lookup, cache hits too, hashes and
    compares the whole cascade, so a geometry's levels share one."""
    before = cascade_launch_costs.cache_info()
    geometry = _Geometry(reference, reference.backend, (270, 480), ScratchArena())
    after = cascade_launch_costs.cache_info()
    assert len(geometry.levels) > 1
    assert (after.hits + after.misses) - (before.hits + before.misses) <= 1


class TestHarnessContract:
    def test_batch_workspace_declares_process_batch(self):
        assert BatchFrameWorkspace is FrameWorkspace
        assert "process_batch" in vars(BatchFrameWorkspace)

    def test_one_call_per_group_with_the_callers_arrays(self, cascade, monkeypatch):
        calls: list[tuple[int, list]] = []
        depth = threading.local()
        original = vars(BatchFrameWorkspace)["process_batch"]

        def recording(self, lumas, mode=None):
            level = getattr(depth, "level", 0)
            calls.append((level, list(lumas)))
            depth.level = level + 1
            try:
                return original(self, lumas, mode)
            finally:
                depth.level = level

        monkeypatch.setattr(BatchFrameWorkspace, "process_batch", recording)
        scenes = [
            render_scene(96, 96, faces=1, rng=rng_for(9, "harness", i))[0]
            for i in range(8)
        ]
        # held x2 as distinct buffers, like the held stream workload
        frames = [scene.astype(np.float32) for scene in scenes for _ in range(2)]
        pipeline = FaceDetectionPipeline(
            cascade, config=PipelineConfig(backend="vectorized", fastpath="exact")
        )
        with DetectionEngine(
            pipeline,
            workers=2,
            sharding="threads",
            batch_across_frames=True,
            device_batch=8,
        ) as engine:
            results = list(engine.process_frames(iter(frames)))
        assert len(results) == len(frames)
        assert len(calls) == 2
        assert all(level == 0 for level, _ in calls)
        position = {id(frame): i for i, frame in enumerate(frames)}
        groups = sorted((lumas for _, lumas in calls), key=lambda g: position[id(g[0])])
        received = [luma for group in groups for luma in group]
        assert len(received) == len(frames)
        assert all(got is sent for got, sent in zip(received, frames))

        calls.clear()
        pipeline.make_workspace().process_frame(frames[0])
        assert calls == []
