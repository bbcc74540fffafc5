"""Instrumentation must not change behaviour.

The contract of the whole observability layer: with tracing and metrics
enabled, the engine produces output *byte-identical* to the PR 1
reference path — detections, depth/margin/sigma maps and simulated
schedules all compare exactly equal.
"""

import numpy as np
import pytest

from repro.detect.engine import DetectionEngine
from repro.detect.pipeline import FaceDetectionPipeline
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.utils.rng import rng_for
from repro.video.synthesis import render_scene
from repro.zoo import quick_cascade


@pytest.fixture(scope="module")
def pipeline():
    return FaceDetectionPipeline(quick_cascade(seed=0))


@pytest.fixture(scope="module")
def frames():
    return [
        render_scene(120, 90, faces=1, rng=rng_for(11, "engine-test", i))[0]
        for i in range(5)
    ]


def _assert_identical(reference, candidate):
    """Detections, schedules and every level's rejection histogram."""
    assert len(candidate) == len(reference)
    for ref, out in zip(reference, candidate):
        ref_dets = [(d.x, d.y, d.size, d.score) for d in ref.raw_detections]
        out_dets = [(d.x, d.y, d.size, d.score) for d in out.raw_detections]
        assert out_dets == ref_dets
        assert out.schedule.makespan_s == ref.schedule.makespan_s
        assert len(out.kernel_results) == len(ref.kernel_results)
        for kr, ko in zip(ref.kernel_results, out.kernel_results):
            assert np.array_equal(kr.rejections_by_depth, ko.rejections_by_depth)


def _assert_same_maps(reference, candidate):
    """Every level's maps, read off results that keep them."""
    _assert_identical(reference, candidate)
    for ref, out in zip(reference, candidate):
        for kr, ko in zip(ref.kernel_results, out.kernel_results):
            assert ko.depth_map is not None
            assert np.array_equal(kr.depth_map, ko.depth_map)
            assert np.array_equal(kr.margin_map, ko.margin_map)
            assert np.array_equal(kr.sigma_map, ko.sigma_map)


def _traced_maps(pipeline, frames, tracer):
    """Full results of a traced workspace that keeps its maps."""
    workspace = pipeline.make_workspace(tracer=tracer, keep_maps=True)
    return [workspace.process_frame(f) for f in frames]


class TestTracingIsBehaviourNeutral:
    def test_traced_engine_matches_untraced_reference(self, pipeline, frames):
        reference = [pipeline.process_frame(f) for f in frames]

        tracer = Tracer()
        metrics = MetricsRegistry()
        engine = DetectionEngine(pipeline, workers=2, tracer=tracer, metrics=metrics)
        traced = list(engine.process_frames(iter(frames)))

        _assert_identical(reference, traced)
        _assert_same_maps(reference, _traced_maps(pipeline, frames, tracer))
        # ... while actually having observed the run
        assert len(tracer.spans()) > 0
        assert metrics.counter("engine.frames").value == len(frames)

    def test_traced_serial_pipeline_matches_untraced(self, frames):
        untraced = FaceDetectionPipeline(quick_cascade(seed=0))
        traced_pipeline = FaceDetectionPipeline(quick_cascade(seed=0), tracer=Tracer())
        reference = [untraced.process_frame(f) for f in frames]
        traced = [traced_pipeline.process_frame(f) for f in frames]
        _assert_same_maps(reference, traced)
        assert len(traced_pipeline.tracer.spans()) > 0

    def test_inline_workers_traced_identical(self, pipeline, frames):
        reference = [pipeline.process_frame(f) for f in frames]
        tracer = Tracer()
        engine = DetectionEngine(
            pipeline, workers=0, tracer=tracer, metrics=MetricsRegistry()
        )
        _assert_identical(reference, list(engine.process_frames(iter(frames))))
        _assert_same_maps(reference, _traced_maps(pipeline, frames, tracer))

    def test_span_volume_scales_with_frames(self, pipeline, frames):
        tracer = Tracer()
        engine = DetectionEngine(pipeline, workers=2, tracer=tracer)
        list(engine.process_frames(iter(frames)))
        frame_spans = [s for s in tracer.spans() if s.name == "frame"]
        assert len(frame_spans) == len(frames)
        assert sorted(s.args["frame"] for s in frame_spans) == list(range(len(frames)))
