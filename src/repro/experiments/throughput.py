"""Wall-clock throughput: serial ``process_frame`` vs the sharded engine.

The paper's headline number is end-to-end frames/second (Table II sustains
70 fps on 1080p trailers).  The simulator reports *simulated* GPU seconds;
this harness measures the complementary quantity — real host seconds per
frame — across three execution paths over the same frames:

* ``serial``     — a naive ``process_frame`` loop (the baseline);
* ``threads``    — the :class:`~repro.detect.engine.DetectionEngine`
  thread pool (GIL-bound; overlaps only the NumPy regions that release
  the GIL);
* ``processes``  — the process-sharded engine: persistent worker
  processes, shared-memory frame transport, true multi-core scaling.

Every path is warmed before timing — the serial pass doubles as the
byte-identity reference, the engines run one full pass each so worker
state (workspaces, pyramid plans, spawned worker processes) is built
outside the timed region, exactly as it would be mid-video — and then
timed by :mod:`repro.experiments.harness`: alternating rounds (serial,
threads, processes), ``warmup`` rounds excluded, median + IQR scored.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro import zoo
from repro.detect.engine import DetectionEngine, ShardingMode, batch_report
from repro.detect.pipeline import FaceDetectionPipeline, PipelineConfig
from repro.errors import ConfigurationError
from repro.experiments.harness import ModeTiming, identical, time_rounds
from repro.gpusim.batch import BatchReport
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import build_snapshot
from repro.obs.tracer import Tracer
from repro.utils.provenance import provenance
from repro.utils.tables import format_table
from repro.video.stream import synthetic_stream

__all__ = [
    "ThroughputResult",
    "run_throughput",
    "BENCH_SCHEMA_VERSION",
]

#: ``BENCH_throughput.json`` schema: 3 adds the serial/threads/processes
#: mode comparison with median + IQR scoring and warmup rounds; 4 adds
#: the compute device and probe path (top-level ``device`` plus
#: ``provenance.device`` / ``provenance.probe``)
BENCH_SCHEMA_VERSION = 4

#: quarter-1080p: the paper's 1920x1080 trailer frames scaled by 4 per axis
#: (aspect preserved) so the suite runs in seconds on one CPU core
_DEFAULT_WIDTH = 480
_DEFAULT_HEIGHT = 270


@dataclass
class ThroughputResult:
    """Outcome of one serial / threads / processes wall-clock comparison."""

    width: int
    height: int
    frames: int
    workers: int
    trials: int
    warmup: int
    cascade: str
    backend: str
    #: the primary (headline) engine mode: "threads" or "processes"
    mode: str
    serial: ModeTiming
    threads: ModeTiming
    processes: ModeTiming
    #: per-path byte-identity against the serial reference
    identity: dict[str, bool]
    report: BatchReport
    #: observability snapshot of a post-timing instrumented engine pass
    metrics: dict | None = None
    #: compute device kind the backend resolved to ("cpu"/"cuda"/"mps")
    device: str = "cpu"
    #: one-line capability-probe path that selected the backend
    probe: str | None = None

    @property
    def identical(self) -> bool:
        """Every measured path produced byte-identical detections."""
        return all(self.identity.values())

    def timing(self, mode: str) -> ModeTiming:
        return {
            "serial": self.serial,
            "threads": self.threads,
            "processes": self.processes,
        }[mode]

    @property
    def serial_s(self) -> float:
        return self.serial.median_s

    @property
    def batched_s(self) -> float:
        return self.timing(self.mode).median_s

    @property
    def serial_fps(self) -> float:
        return self.serial.fps(self.frames)

    @property
    def batched_fps(self) -> float:
        return self.timing(self.mode).fps(self.frames)

    def speedup_of(self, mode: str) -> float:
        median = self.timing(mode).median_s
        return self.serial.median_s / median if median > 0 else 0.0

    @property
    def speedup(self) -> float:
        """Primary-mode median wall-clock fps over serial median fps."""
        return self.speedup_of(self.mode)

    def to_dict(self) -> dict:
        """The ``BENCH_throughput.json`` payload."""
        return {
            "experiment": "throughput",
            "schema_version": BENCH_SCHEMA_VERSION,
            "provenance": provenance(
                backend=self.backend,
                mode=self.mode,
                device=self.device,
                probe=self.probe,
            ),
            "frame_width": self.width,
            "frame_height": self.height,
            "frames": self.frames,
            "workers": self.workers,
            "trials": self.trials,
            "warmup": self.warmup,
            "cascade": self.cascade,
            "backend": self.backend,
            "device": self.device,
            "mode": self.mode,
            "modes": {
                "serial": self.serial.to_dict(self.frames),
                "threads": {
                    **self.threads.to_dict(self.frames),
                    "speedup": self.speedup_of("threads"),
                },
                "processes": {
                    **self.processes.to_dict(self.frames),
                    "speedup": self.speedup_of("processes"),
                },
            },
            "serial_s": self.serial_s,
            "batched_s": self.batched_s,
            "serial_fps": self.serial_fps,
            "batched_fps": self.batched_fps,
            "speedup": self.speedup,
            "identical_detections": self.identical,
            "identity": dict(self.identity),
            "batch_report": self.report.to_dict(),
            "metrics": self.metrics,
        }

    def write_json(self, path: str | Path) -> Path:
        """Write the JSON artifact; returns the resolved path."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    def format_table(self) -> str:
        def row(label: str, mode: str) -> list:
            t = self.timing(mode)
            return [
                label,
                round(t.median_s, 3),
                round(t.iqr_s, 3),
                round(t.fps(self.frames), 2),
                round(self.speedup_of(mode), 2),
            ]

        rows = [
            row("serial process_frame", "serial"),
            row(f"threads engine ({self.workers} workers)", "threads"),
            row(f"processes engine ({self.workers} workers)", "processes"),
        ]
        table = format_table(
            ["path", "median s", "IQR s", "fps", "speedup"],
            rows,
            title=(
                f"Throughput — {self.frames} x {self.width}x{self.height} synthetic "
                f"frames, {self.cascade} cascade, {self.backend} backend "
                f"on {self.device} "
                f"(median of {self.trials} rounds, {self.warmup} warmup, "
                f"{os.cpu_count() or 1} cores, primary mode: {self.mode})"
            ),
        )
        sim = self.report.simulated_fps
        return table + (
            f"\ndetections byte-identical: {self.identical} "
            f"(threads: {self.identity.get('threads')}, "
            f"processes: {self.identity.get('processes')}, "
            f"traced: {self.identity.get('traced')})"
            f"\nsimulated device throughput: {sim:.1f} fps"
        )


def run_throughput(
    *,
    frames: int = 10,
    workers: int = 4,
    width: int = _DEFAULT_WIDTH,
    height: int = _DEFAULT_HEIGHT,
    trials: int = 3,
    warmup: int = 1,
    cascade: str = "paper",
    faces: int = 2,
    seed: int = 0,
    backend: str | None = None,
    device: str | None = None,
    mode: ShardingMode | str = ShardingMode.THREADS,
    fastpath: str | None = None,
) -> ThroughputResult:
    """Measure serial vs thread-sharded vs process-sharded wall-clock fps.

    ``mode`` names the *primary* engine path the headline ``speedup``
    and the instrumented metrics pass use (``auto`` resolves against the
    host, exactly as the engine would); all three paths are always
    timed, so the artifact records the full comparison either way.
    ``backend`` names the compute backend every path runs on (``None``
    defers to ``REPRO_BACKEND`` / the ``reference`` default); ``device``
    restricts the backend's capability probe to one device kind
    (``"auto"`` walks CUDA -> MPS -> CPU); ``fastpath`` selects the
    two-tier fast-path policy the same way (``None`` defers to
    ``REPRO_FASTPATH`` / off).
    """
    if frames <= 0:
        raise ConfigurationError("frames must be positive")
    if trials <= 0:
        raise ConfigurationError("trials must be positive")
    if warmup < 0:
        raise ConfigurationError("warmup must be >= 0")
    primary = ShardingMode.coerce(mode).resolve(workers)

    pipeline = FaceDetectionPipeline(
        zoo.builtin_cascade(cascade),
        config=PipelineConfig(backend=backend, device=device, fastpath=fastpath),
    )
    lumas = [
        packet.luma
        for packet in synthetic_stream(width, height, frames, faces=faces, seed=seed)
    ]
    thread_engine = DetectionEngine(pipeline, workers=workers, sharding="threads")
    process_engine = DetectionEngine(pipeline, workers=workers, sharding="processes")

    try:
        # Warm every path: the serial pass doubles as the reference output
        # for the identity checks; each engine pass builds its worker
        # state (workspaces / spawned processes) before the timed region.
        reference = [pipeline.process_frame(luma) for luma in lumas]
        threaded = list(thread_engine.process_frames(iter(lumas)))
        processed = list(process_engine.process_frames(iter(lumas)))
        identity = {
            "threads": identical(reference, threaded),
            "processes": identical(reference, processed),
        }
        timings, outputs = time_rounds(
            {
                "serial": lambda: [pipeline.process_frame(luma) for luma in lumas],
                "threads": lambda: list(thread_engine.process_frames(iter(lumas))),
                "processes": lambda: list(process_engine.process_frames(iter(lumas))),
            },
            warmup=warmup,
            trials=trials,
        )
    finally:
        thread_engine.close()
        process_engine.close()

    report = batch_report(outputs["processes"], wall_s=timings[primary.value].median_s)

    # One extra fully instrumented pass *after* the timed rounds, on the
    # primary mode: the metrics snapshot (per-stage busy seconds,
    # frame-latency percentiles, queue depth — merged across worker
    # processes under process sharding) rides along in the JSON artifact
    # without perturbing the timed region.  It doubles as another
    # identity check: tracing must not change a single output byte.
    tracer = Tracer()
    registry = MetricsRegistry()
    with DetectionEngine(
        pipeline,
        workers=workers,
        sharding=primary,
        tracer=tracer,
        metrics=registry,
    ) as traced_engine:
        traced = list(traced_engine.process_frames(iter(lumas)))
    identity["traced"] = identical(reference, traced)
    metrics = build_snapshot(
        registry,
        tracer,
        backend=pipeline.backend.name,
        device=pipeline.compute_device,
        probe=pipeline.probe_report,
    )

    return ThroughputResult(
        width=width,
        height=height,
        frames=frames,
        workers=workers,
        trials=trials,
        warmup=warmup,
        cascade=cascade,
        backend=pipeline.backend.name,
        mode=primary.value,
        serial=timings["serial"],
        threads=timings["threads"],
        processes=timings["processes"],
        identity=identity,
        report=report,
        metrics=metrics,
        device=pipeline.compute_device,
        probe=(
            pipeline.probe_report.path if pipeline.probe_report is not None else None
        ),
    )
