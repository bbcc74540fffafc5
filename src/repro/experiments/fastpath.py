"""Fast-path benchmark: what the proposal pre-pass + delta cache buy.

``repro bench fastpath`` streams one synthetic Table II trailer through
three :class:`~repro.detect.engine.FrameWorkspace` configurations over
the same frames:

* ``off``   — the baseline workspace (no fast path);
* ``exact`` — reuse on bit-equal pixels only (must be byte-identical);
* ``fast``  — variance-screen pruning + anchor-granular carry-forward.

and reports wall-clock speedup next to the accuracy cost.  ``exact`` is
gated on *byte identity* with the baseline — on the cold first pass and
on every warm timed round — while ``fast`` is scored by recall and
precision of its detections against ``exact`` matched on position and
size (score excluded: a carried-forward detection keeps its previous
margin).

Every path is warmed before timing (the warm pass also populates the
temporal caches — steady-state reuse is exactly what the fast path
exists for) and then timed by :mod:`repro.experiments.harness`:
alternating rounds over the same frames, median + IQR scored.

The stream models display-rate cadence: each rendered trailer frame is
emitted ``hold`` times (default 2), the way 24 fps content reaches a
48/60 Hz pipeline through pulldown and the way static shots hold frames
in real streams.  Held frames are bit-identical repeats, so they are
exactly the case the temporal delta cache (both policies) short-
circuits; ``hold=1`` measures the every-frame-changes worst case.

Headline ``speedup`` is ``fast`` vs ``off`` — the fast path against the
baseline pipeline it replaces.  ``speedup_vs_exact`` records what the
lossy tier adds over the provably-identical tier on the same stream.

The default backend is ``vectorized``: the masked re-evaluation leans
on batched sparse gathers, which is where skipping anchors actually
outruns the dense slicing path.  The ``reference`` backend stays the
byte-identity oracle — ``exact`` is asserted identical on whichever
backend runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro import zoo
from repro.detect.engine import DetectionEngine
from repro.detect.fastpath import FastpathConfig, FastpathFrameStats, FastpathPolicy
from repro.detect.pipeline import FaceDetectionPipeline, FrameResult, PipelineConfig
from repro.errors import ConfigurationError
from repro.experiments.harness import ModeTiming, identical, time_rounds
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import build_snapshot
from repro.obs.tracer import Tracer
from repro.utils.provenance import provenance
from repro.utils.tables import format_table
from repro.video.stream import trailer_stream

__all__ = ["FastpathResult", "run_fastpath", "FASTPATH_BENCH_SCHEMA_VERSION"]

#: ``BENCH_fastpath.json`` schema version
FASTPATH_BENCH_SCHEMA_VERSION = 1


def _positions(result: FrameResult) -> set[tuple]:
    """Detections keyed by (x, y, size) — score-free matching for recall."""
    return {(d.x, d.y, d.size) for d in result.raw_detections}


@dataclass
class FastpathResult:
    """Outcome of one off / exact / fast wall-clock + accuracy comparison."""

    trailer: str
    width: int
    height: int
    frames: int
    hold: int
    trials: int
    warmup: int
    cascade: str
    backend: str
    tile: int
    min_sigma: float
    off: ModeTiming
    exact: ModeTiming
    fast: ModeTiming
    #: byte identity of ``exact`` vs the baseline, cold and warm
    identity: dict[str, bool]
    #: position/size match of ``fast`` vs ``exact`` on the warm pass
    recall: float
    precision: float
    #: aggregated per-frame fast-path counters of the final timed round
    exact_stats: FastpathFrameStats
    fast_stats: FastpathFrameStats
    #: observability snapshot of a post-timing instrumented ``fast`` pass
    metrics: dict | None = None

    @property
    def identical_exact(self) -> bool:
        """``exact`` matched the baseline byte-for-byte in every pass."""
        return all(self.identity.values())

    @property
    def total_frames(self) -> int:
        """Frames actually processed per round: rendered x hold."""
        return self.frames * self.hold

    def timing(self, policy: str) -> ModeTiming:
        return {"off": self.off, "exact": self.exact, "fast": self.fast}[policy]

    def speedup_of(self, policy: str) -> float:
        median = self.timing(policy).median_s
        return self.off.median_s / median if median > 0 else 0.0

    @property
    def speedup(self) -> float:
        """Headline: ``fast`` wall clock vs the baseline (``off``)."""
        return self.speedup_of("fast")

    @property
    def speedup_vs_exact(self) -> float:
        """What the lossy tier adds over the byte-identical tier."""
        fast = self.fast.median_s
        return self.exact.median_s / fast if fast > 0 else 0.0

    def to_dict(self) -> dict:
        """The ``BENCH_fastpath.json`` payload."""
        return {
            "experiment": "fastpath",
            "schema_version": FASTPATH_BENCH_SCHEMA_VERSION,
            "provenance": provenance(backend=self.backend, mode="fast"),
            "trailer": self.trailer,
            "frame_width": self.width,
            "frame_height": self.height,
            "frames": self.frames,
            "hold": self.hold,
            "trials": self.trials,
            "warmup": self.warmup,
            "cascade": self.cascade,
            "backend": self.backend,
            "tile": self.tile,
            "min_sigma": self.min_sigma,
            "policies": {
                "off": self.off.to_dict(self.total_frames),
                "exact": {
                    **self.exact.to_dict(self.total_frames),
                    "speedup": self.speedup_of("exact"),
                },
                "fast": {
                    **self.fast.to_dict(self.total_frames),
                    "speedup": self.speedup_of("fast"),
                },
            },
            "speedup": self.speedup,
            "speedup_vs_exact": self.speedup_vs_exact,
            "identical_exact": self.identical_exact,
            "identity": dict(self.identity),
            "recall": self.recall,
            "precision": self.precision,
            "exact_stats": self.exact_stats.to_dict(),
            "fast_stats": self.fast_stats.to_dict(),
            "metrics": self.metrics,
        }

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    def format_table(self) -> str:
        def row(policy: str) -> list:
            t = self.timing(policy)
            return [
                policy,
                round(t.median_s, 3),
                round(t.iqr_s, 3),
                round(t.fps(self.total_frames), 2),
                round(self.speedup_of(policy), 2),
            ]

        table = format_table(
            ["policy", "median s", "IQR s", "fps", "speedup vs off"],
            [row("off"), row("exact"), row("fast")],
            title=(
                f"Fast path — {self.frames} x {self.width}x{self.height} "
                f"'{self.trailer}' trailer frames held x{self.hold}, "
                f"{self.cascade} cascade, {self.backend} backend "
                f"(median of {self.trials} rounds, {self.warmup} warmup)"
            ),
        )
        fs = self.fast_stats
        evaluated = fs.anchors_evaluated / fs.anchors if fs.anchors else 1.0
        return table + (
            f"\nexact byte-identical: {self.identical_exact} {self.identity}"
            f"\nfast vs off: {self.speedup:.2f}x wall clock "
            f"(vs exact: {self.speedup_vs_exact:.2f}x), "
            f"recall {self.recall:.4f}, precision {self.precision:.4f}"
            f"\nfast evaluated {evaluated:.1%} of anchors "
            f"(carried {fs.anchors_carried}, pruned {fs.anchors_pruned}, "
            f"frames reused {fs.frames_reused}); "
            f"exact proposal recall {self.exact_stats.proposal_recall:.4f}"
        )


def _merged_stats(results: list[FrameResult], policy: str) -> FastpathFrameStats:
    merged = FastpathFrameStats(policy=policy)
    for result in results:
        if result.fastpath is not None:
            merged.merge(result.fastpath)
    return merged


def run_fastpath(
    *,
    trailer: str = "50/50",
    frames: int = 24,
    width: int = 320,
    height: int = 240,
    hold: int = 2,
    trials: int = 3,
    warmup: int = 1,
    cascade: str = "quick",
    seed: int = 0,
    backend: str | None = "vectorized",
    tile: int = 16,
    min_sigma: float = 4.0,
) -> FastpathResult:
    """Measure off vs exact vs fast wall clock on one trailer stream.

    Each policy keeps one workspace (and so one temporal cache) alive
    across all rounds — the warm steady state is the quantity of
    interest.  ``hold`` repeats each rendered frame that many times
    (display-rate pulldown; see module doc).  ``backend=None`` defers
    to ``REPRO_BACKEND``; the default is ``vectorized`` (see module
    doc).
    """
    if frames <= 0:
        raise ConfigurationError("frames must be positive")
    if hold <= 0:
        raise ConfigurationError("hold must be positive")
    if trials <= 0:
        raise ConfigurationError("trials must be positive")
    if warmup < 0:
        raise ConfigurationError("warmup must be >= 0")

    source = zoo.builtin_cascade(cascade)
    lumas = [
        packet.luma
        for packet in trailer_stream(trailer, width, height, frames, seed=seed)
        for _ in range(hold)
    ]

    def pipeline_for(policy: FastpathPolicy) -> FaceDetectionPipeline:
        config = FastpathConfig(policy=policy, tile=tile, min_sigma=min_sigma)
        return FaceDetectionPipeline(
            source, config=PipelineConfig(backend=backend, fastpath=config)
        )

    off_pipeline = pipeline_for(FastpathPolicy.OFF)
    exact_pipeline = pipeline_for(FastpathPolicy.EXACT)
    fast_pipeline = pipeline_for(FastpathPolicy.FAST)
    off_ws = off_pipeline.make_workspace()
    exact_ws = exact_pipeline.make_workspace()
    fast_ws = fast_pipeline.make_workspace()

    # Warm pass: builds plans and populates the temporal caches; the cold
    # exact pass is also the strictest identity check (no cache to lean on).
    reference = [off_ws.process_frame(luma) for luma in lumas]
    exact_cold = [exact_ws.process_frame(luma) for luma in lumas]
    for luma in lumas:
        fast_ws.process_frame(luma)
    identity = {"cold": identical(reference, exact_cold)}

    timings, outputs = time_rounds(
        {
            "off": lambda: [off_ws.process_frame(luma) for luma in lumas],
            "exact": lambda: [exact_ws.process_frame(luma) for luma in lumas],
            "fast": lambda: [fast_ws.process_frame(luma) for luma in lumas],
        },
        warmup=warmup,
        trials=trials,
    )
    exact_results, fast_results = outputs["exact"], outputs["fast"]
    identity["warm"] = identical(outputs["off"], exact_results)

    matched = sum(
        len(_positions(e) & _positions(f))
        for e, f in zip(exact_results, fast_results)
    )
    exact_total = sum(len(_positions(e)) for e in exact_results)
    fast_total = sum(len(_positions(f)) for f in fast_results)
    recall = matched / exact_total if exact_total else 1.0
    precision = matched / fast_total if fast_total else 1.0

    # One instrumented pass after the timed rounds: the snapshot carries
    # the bridged fastpath.* counters and the fastpath.diff/screen spans.
    tracer = Tracer()
    registry = MetricsRegistry()
    with DetectionEngine(
        pipeline_for(FastpathPolicy.FAST),
        workers=0,
        tracer=tracer,
        metrics=registry,
    ) as engine:
        list(engine.process_frames(iter(lumas)))
    metrics = build_snapshot(registry, tracer, backend=off_pipeline.backend.name)

    return FastpathResult(
        trailer=trailer,
        width=width,
        height=height,
        frames=frames,
        hold=hold,
        trials=trials,
        warmup=warmup,
        cascade=cascade,
        backend=off_pipeline.backend.name,
        tile=tile,
        min_sigma=min_sigma,
        off=timings["off"],
        exact=timings["exact"],
        fast=timings["fast"],
        identity=identity,
        recall=recall,
        precision=precision,
        exact_stats=_merged_stats(exact_results, "exact"),
        fast_stats=_merged_stats(fast_results, "fast"),
        metrics=metrics,
    )
