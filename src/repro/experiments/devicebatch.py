"""Device-batch benchmark: what cross-frame launch fusion amortises.

``repro bench devicebatch`` streams one synthetic Table II trailer
through the batch-mode :class:`~repro.detect.engine.DetectionEngine`
(``batch_across_frames=True``, ``workers=0`` so nothing but the fused
execution is timed) at several device-batch widths over the *same*
frames, and reports the per-frame amortised wall clock next to the
transfer-count accounting.

Batch width 1 is the baseline: single-frame groups run as N=1 lanes of
the same executor (per-frame kernels, one schedule each), so the
comparison isolates exactly what fusing N same-shaped frames into one
launch set buys — one ``scheduler.run`` per batch instead of per frame,
and one host<->device crossing per transfer site per batch instead of
per frame.

One engine (and so one workspace with warm plans) per batch width stays
alive across all rounds, timed by :mod:`repro.experiments.harness`:
alternating rounds across widths over the same frames, median + IQR
scored.

Identity is non-negotiable: every batch width must produce detections
byte-identical to width 1 (the fused kernels are elementwise over
stacked lanes, so this is an exact gate, not a tolerance gate).  The
accounting identity ``transfers + transfers_saved == transfers(width 1)``
must hold at every width — the saved column is real crossings avoided,
not an estimate.

Writes ``BENCH_devicebatch.json`` (schema v1), validated by ``repro
bench check`` against ``benchmarks/baselines/devicebatch.json``.
Baselines gate the identity and accounting invariants; the wall-clock
monotonicity gate lives in ``benchmarks/test_devicebatch.py`` and only
runs outside smoke mode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from repro import zoo
from repro.detect.engine import DetectionEngine
from repro.detect.pipeline import FaceDetectionPipeline, PipelineConfig
from repro.errors import ConfigurationError
from repro.experiments.harness import ModeTiming, identical, time_rounds
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import build_snapshot
from repro.utils.provenance import provenance
from repro.utils.tables import format_table
from repro.video.stream import trailer_stream

__all__ = ["DeviceBatchResult", "run_devicebatch", "DEVICEBATCH_BENCH_SCHEMA_VERSION"]

#: ``BENCH_devicebatch.json`` schema version
DEVICEBATCH_BENCH_SCHEMA_VERSION = 1


@dataclass
class DeviceBatchResult:
    """Outcome of one batch-width sweep over identical frames."""

    trailer: str
    width: int
    height: int
    frames: int
    trials: int
    warmup: int
    cascade: str
    backend: str
    batch_sizes: tuple[int, ...]
    timings: dict[int, ModeTiming]
    #: instrumented-pass engine counters per batch width
    accounting: dict[int, dict]
    #: every width byte-identical to width 1
    identical_detections: bool
    #: observability snapshot of the widest instrumented pass
    metrics: dict | None = None

    @property
    def headline_batch(self) -> int:
        """The width the headline speedup is quoted at: 8, else the widest."""
        return 8 if 8 in self.batch_sizes else max(self.batch_sizes)

    def per_frame_ms(self, batch: int) -> float:
        return self.timings[batch].median_s / self.frames * 1e3

    def speedup_of(self, batch: int) -> float:
        median = self.timings[batch].median_s
        return self.timings[1].median_s / median if median > 0 else 0.0

    @property
    def speedup(self) -> float:
        """Per-frame amortised wall clock, width 1 over the headline width."""
        return self.speedup_of(self.headline_batch)

    @property
    def monotonic_1_to_8(self) -> bool:
        """Median per-frame wall clock non-increasing from width 1 up to 8."""
        widths = [b for b in self.batch_sizes if b <= 8]
        medians = [self.timings[b].median_s for b in widths]
        return all(a >= b for a, b in zip(medians, medians[1:]))

    @property
    def transfer_accounting_ok(self) -> bool:
        """``transfers + saved`` equals the width-1 crossing count everywhere."""
        base = self.accounting[1]["transfers"]
        return all(
            acct["transfers"] + acct["transfers_saved"] == base
            for acct in self.accounting.values()
        )

    def to_dict(self) -> dict:
        """The ``BENCH_devicebatch.json`` payload."""
        batches = {}
        for b in self.batch_sizes:
            batches[str(b)] = {
                **self.timings[b].to_dict(self.frames),
                "per_frame_ms": self.per_frame_ms(b),
                "speedup_vs_1": self.speedup_of(b),
                **self.accounting[b],
            }
        return {
            "experiment": "devicebatch",
            "schema_version": DEVICEBATCH_BENCH_SCHEMA_VERSION,
            "provenance": provenance(backend=self.backend, mode="devicebatch"),
            "trailer": self.trailer,
            "frame_width": self.width,
            "frame_height": self.height,
            "frames": self.frames,
            "trials": self.trials,
            "warmup": self.warmup,
            "cascade": self.cascade,
            "backend": self.backend,
            "batch_sizes": list(self.batch_sizes),
            "batches": batches,
            "headline_batch": self.headline_batch,
            "speedup": self.speedup,
            "monotonic_1_to_8": self.monotonic_1_to_8,
            "identical_detections": self.identical_detections,
            "transfer_accounting_ok": self.transfer_accounting_ok,
            "metrics": self.metrics,
        }

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    def format_table(self) -> str:
        rows = [
            [
                b,
                round(self.timings[b].median_s, 3),
                round(self.timings[b].iqr_s, 3),
                round(self.per_frame_ms(b), 3),
                round(self.speedup_of(b), 2),
                self.accounting[b]["fused_batches"],
                self.accounting[b]["transfers_saved"],
            ]
            for b in self.batch_sizes
        ]
        table = format_table(
            [
                "batch",
                "median s",
                "IQR s",
                "ms/frame",
                "speedup vs 1",
                "fused",
                "xfers saved",
            ],
            rows,
            title=(
                f"Device batching — {self.frames} x {self.width}x{self.height} "
                f"'{self.trailer}' trailer frames, {self.cascade} cascade, "
                f"{self.backend} backend (median of {self.trials} rounds, "
                f"{self.warmup} warmup)"
            ),
        )
        return table + (
            f"\nheadline: {self.speedup:.2f}x per-frame wall clock at batch "
            f"{self.headline_batch} (monotonic 1->8: {self.monotonic_1_to_8})"
            f"\ndetections byte-identical across widths: "
            f"{self.identical_detections}; transfer accounting closed: "
            f"{self.transfer_accounting_ok}"
        )


def _engine_counters(registry: MetricsRegistry) -> dict:
    counters = registry.snapshot()["counters"]
    return {
        "device_batches": int(counters.get("engine.device_batches", 0)),
        "fused_batches": int(counters.get("engine.device_batches_fused", 0)),
        "batched_frames": int(counters.get("engine.batched_frames", 0)),
        "transfers": int(counters.get("engine.device_transfers", 0)),
        "transfers_saved": int(counters.get("engine.device_transfers_saved", 0)),
    }


def run_devicebatch(
    *,
    trailer: str = "50/50",
    frames: int = 48,
    width: int = 96,
    height: int = 96,
    batch_sizes: tuple[int, ...] = (1, 4, 8, 16),
    trials: int = 3,
    warmup: int = 1,
    cascade: str = "quick",
    seed: int = 0,
    backend: str | None = "vectorized",
) -> DeviceBatchResult:
    """Sweep device-batch widths over one trailer's frames.

    One batch-mode engine per width stays alive across all rounds so the
    fused-launch caches are warm when timing starts.  ``backend=None``
    defers to ``REPRO_BACKEND``; the default is ``vectorized`` — the
    batched kernels are where stacked lanes actually fuse (``reference``
    loops per frame by design and measures nothing).
    """
    if frames <= 0:
        raise ConfigurationError("frames must be positive")
    if trials <= 0:
        raise ConfigurationError("trials must be positive")
    if warmup < 0:
        raise ConfigurationError("warmup must be >= 0")
    sizes = tuple(sorted(set(int(b) for b in batch_sizes)))
    if not sizes or sizes[0] < 1:
        raise ConfigurationError("batch sizes must be >= 1")
    if 1 not in sizes:
        raise ConfigurationError("batch_sizes must include 1 (the baseline)")

    pipeline = FaceDetectionPipeline(
        zoo.builtin_cascade(cascade), config=PipelineConfig(backend=backend)
    )
    lumas = [
        packet.luma
        for packet in trailer_stream(trailer, width, height, frames, seed=seed)
    ]

    # Instrumented pass per width: fills the accounting columns and the
    # identity reference — counters stay out of the timed region.
    accounting: dict[int, dict] = {}
    results_by_batch: dict[int, list] = {}
    metrics_snapshot: dict | None = None
    for b in sizes:
        registry = MetricsRegistry()
        with DetectionEngine(
            pipeline,
            workers=0,
            metrics=registry,
            batch_across_frames=True,
            device_batch=b,
        ) as engine:
            results_by_batch[b] = list(engine.process_frames(iter(lumas)))
        accounting[b] = _engine_counters(registry)
        if b == sizes[-1]:
            metrics_snapshot = build_snapshot(registry, backend=pipeline.backend.name)
    identical_detections = all(
        identical(results_by_batch[1], results_by_batch[b]) for b in sizes
    )

    engines = {
        b: DetectionEngine(
            pipeline, workers=0, batch_across_frames=True, device_batch=b
        )
        for b in sizes
    }

    def timed_pass(b: int) -> list:
        processed = list(engines[b].process_frames(iter(lumas)))
        if len(processed) != frames:
            raise ConfigurationError(
                f"batch {b} returned {len(processed)} of {frames} frames"
            )
        return processed

    try:
        timings, _ = time_rounds(
            {b: partial(timed_pass, b) for b in sizes}, warmup=warmup, trials=trials
        )
    finally:
        for engine in engines.values():
            engine.close()

    return DeviceBatchResult(
        trailer=trailer,
        width=width,
        height=height,
        frames=frames,
        trials=trials,
        warmup=warmup,
        cascade=cascade,
        backend=pipeline.backend.name,
        batch_sizes=sizes,
        timings=timings,
        accounting=accounting,
        identical_detections=identical_detections,
        metrics=metrics_snapshot,
    )
