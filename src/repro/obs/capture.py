"""Record an instrumented engine run: the ``repro trace`` backend.

Runs N synthetic frames through a traced :class:`~repro.detect.engine.
DetectionEngine` and packages the three artefacts the CLI writes: the
Chrome trace (host spans per worker thread + simulated per-stream kernel
spans), the metrics snapshot, and the raw per-frame results.

Imported as ``repro.obs.capture`` (not re-exported from the package
``__init__``) so that ``repro.obs`` itself never imports the detection
stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError
from repro.obs.chrome import engine_trace_events, write_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import build_snapshot, render_snapshot, write_snapshot
from repro.obs.tracer import Tracer

__all__ = ["TraceCapture", "run_trace"]


@dataclass
class TraceCapture:
    """Everything one instrumented run produced."""

    frames: int
    workers: int
    backend: str
    #: engine sharding mode the run used ("threads" or "processes")
    mode: str
    results: list = field(repr=False)
    events: list[dict] = field(repr=False)
    snapshot: dict = field(repr=False)
    tracer: Tracer = field(repr=False)
    metrics: MetricsRegistry = field(repr=False)
    #: compute device kind the backend resolved to ("cpu"/"cuda"/"mps")
    device: str = "cpu"

    def write_trace(self, path: str | Path) -> Path:
        return write_chrome_trace(path, self.events)

    def write_metrics(self, path: str | Path) -> Path:
        return write_snapshot(path, self.snapshot)

    def render_snapshot(self) -> str:
        return render_snapshot(self.snapshot)


def run_trace(
    *,
    frames: int = 8,
    workers: int = 2,
    width: int = 480,
    height: int = 270,
    cascade: str = "quick",
    faces: int = 2,
    seed: int = 0,
    backend: str | None = None,
    device: str | None = None,
    mode: str = "threads",
    fastpath: str | None = None,
    pipeline=None,
) -> TraceCapture:
    """Run ``frames`` synthetic frames through a fully traced engine.

    ``pipeline`` overrides the cascade choice with a prebuilt
    :class:`~repro.detect.pipeline.FaceDetectionPipeline` (tests use tiny
    cascades this way); ``backend`` selects the compute backend when the
    pipeline is built here.  ``mode`` selects the engine sharding
    (``threads`` | ``processes`` | ``auto``) — under process sharding the
    per-worker spans come back pid-tagged, so the Chrome trace shows one
    lane per worker process on the shared timeline.  ``fastpath``
    selects the two-tier fast-path policy (``off`` | ``exact`` |
    ``fast``) when the pipeline is built here; its ``fastpath.diff`` /
    ``fastpath.screen`` spans land on the same trace.
    """
    # local imports: keep repro.obs importable without the detection stack
    from repro import zoo
    from repro.detect.engine import DetectionEngine
    from repro.detect.pipeline import FaceDetectionPipeline, PipelineConfig
    from repro.video.stream import synthetic_stream

    if frames <= 0:
        raise ConfigurationError("frames must be positive")
    if pipeline is None:
        pipeline = FaceDetectionPipeline(
            zoo.builtin_cascade(cascade),
            config=PipelineConfig(backend=backend, device=device, fastpath=fastpath),
        )

    tracer = Tracer()
    metrics = MetricsRegistry()
    stream = synthetic_stream(width, height, frames, faces=faces, seed=seed)
    with DetectionEngine(
        pipeline, workers=workers, sharding=mode, tracer=tracer, metrics=metrics
    ) as engine:
        results = list(engine.process_frames(stream))
        resolved_mode = engine.sharding.value
    return TraceCapture(
        frames=frames,
        workers=engine.workers,
        backend=pipeline.backend.name,
        mode=resolved_mode,
        results=results,
        events=engine_trace_events(tracer, results),
        snapshot=build_snapshot(
            metrics,
            tracer,
            backend=pipeline.backend.name,
            device=pipeline.compute_device,
            probe=pipeline.probe_report,
        ),
        tracer=tracer,
        metrics=metrics,
        device=pipeline.compute_device,
    )
