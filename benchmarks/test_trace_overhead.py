"""Tracing overhead bound: instrumentation must be (nearly) free.

Runs the 12-frame quarter-1080p bench twice — once with the null tracer,
once fully instrumented (spans + metrics) — alternating rounds and
scoring each path's minimum, and asserts the traced run costs < 5 %
extra wall-clock.  Also re-asserts byte-identical detections, because an
overhead bound for a tracer that changes answers would be meaningless.

``REPRO_BENCH_SMOKE=1`` shrinks the workload and skips the ratio gate
(shared CI runners have no stable wall clock); the identity assertion
always runs.
"""

import os

import pytest

from repro.detect.engine import DetectionEngine
from repro.detect.pipeline import FaceDetectionPipeline
from repro.experiments.harness import time_rounds
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.video.stream import synthetic_stream
from repro.zoo import paper_cascade, quick_cascade

pytestmark = pytest.mark.bench

_WIDTH, _HEIGHT = 480, 270
_MAX_OVERHEAD = 0.05


def _detections(results):
    return [
        [(d.x, d.y, d.size, d.score) for d in r.raw_detections] for r in results
    ]


def test_trace_overhead_bounded(report):
    smoke = os.environ.get("REPRO_BENCH_SMOKE") == "1"
    frames = 8 if smoke else 12
    trials = 2 if smoke else 3
    cascade = quick_cascade(seed=0) if smoke else paper_cascade(seed=0)

    lumas = [
        packet.luma
        for packet in synthetic_stream(_WIDTH, _HEIGHT, frames, faces=2, seed=0)
    ]
    pipeline = FaceDetectionPipeline(cascade)
    plain = DetectionEngine(pipeline, workers=4)
    traced = DetectionEngine(
        pipeline, workers=4, tracer=Tracer(), metrics=MetricsRegistry()
    )

    # warm both engines so workspace construction is outside the timed region
    plain_results = list(plain.process_frames(iter(lumas)))
    traced_results = list(traced.process_frames(iter(lumas)))
    assert _detections(traced_results) == _detections(plain_results), (
        "tracing changed the detections"
    )

    timings, _ = time_rounds(
        {
            "plain": lambda: list(plain.process_frames(iter(lumas))),
            "traced": lambda: list(traced.process_frames(iter(lumas))),
        },
        warmup=0,
        trials=trials,
    )

    plain_times, traced_times = timings["plain"].rounds, timings["traced"].rounds
    best_plain, best_traced = min(plain_times), min(traced_times)
    overhead = best_traced / best_plain - 1.0
    report(
        f"trace overhead — {frames} frames, 4 workers: "
        f"untraced {best_plain:.3f}s, traced {best_traced:.3f}s "
        f"({overhead * 100.0:+.2f}%)"
    )

    if not smoke:
        assert overhead < _MAX_OVERHEAD, (
            f"tracing costs {overhead * 100.0:.1f}% wall-clock "
            f"(bound: {_MAX_OVERHEAD * 100.0:.0f}%)"
        )
