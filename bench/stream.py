"""Stream workloads: a pull-driven batch job through ``DetectionEngine.process_frames``.

The engine pulls frames from a generator; a frame's latency runs from
the pull to the engine yielding its result.  Throughput, CPU per frame
and latency p50/p90 are taken per window of frames
(:meth:`Phase.per_window`) and reported as the fast-side quartile over
windows (:func:`common.fast_side`).  The generator stops pulling once
``seconds`` have passed since the first pull, cycling through the input
pool if the run outlasts it.

Run as a script (``python bench/stream.py FRAMES.npy``) it is one cold
start: a fresh interpreter that builds the pinned engine, runs the first
device batch and prints the ``time.perf_counter`` at which the batch
came back.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import trace as tracing
from common import (
    BENCH,
    OUT,
    ROOT,
    WINDOWED,
    fast_side,
    latency_quantiles,
    median,
    proc_status_kb,
    rate_and_cpu,
    summarise,
    windows,
)
from repro.detect.engine import DetectionEngine
from repro.detect.pipeline import FaceDetectionPipeline, PipelineConfig
from repro.zoo import load_or_train

WORKERS = 2
DEVICE_BATCH = 8
#: frames per window: four device batches; windows advance one batch
WINDOW = 4 * DEVICE_BATCH
#: every CHECK_EVERY-th distinct input frame is compared with the reference backend
CHECK_EVERY = 8


def build_engine(cascade):
    """The pinned stream engine (identical on every commit)."""
    pipeline = FaceDetectionPipeline(
        cascade, config=PipelineConfig(backend="vectorized", fastpath="exact")
    )
    return DetectionEngine(
        pipeline,
        workers=WORKERS,
        sharding="threads",
        batch_across_frames=True,
        device_batch=DEVICE_BATCH,
    )


def _detection_key(result) -> tuple:
    return tuple((d.x, d.y, d.size, d.score) for d in result.raw_detections)


@dataclass
class Phase:
    """One timed pass: per-item pull/yield/CPU times, input index and detections."""

    pulls: list[float] = field(default_factory=list)
    emits: list[float] = field(default_factory=list)
    #: process CPU seconds (every thread) at each yield
    cpus: list[float] = field(default_factory=list)
    order: list[int] = field(default_factory=list)
    detections: list[tuple] = field(default_factory=list)
    cpu0: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.emits[-1] - self.pulls[0]

    def latencies_ms(self) -> list[float]:
        return [(e - p) * 1e3 for p, e in zip(self.pulls, self.emits)]

    def per_window(self) -> dict[str, list[float]]:
        """Each windowed metric of ``WINDOW``-frame windows, one device batch apart."""
        latencies = self.latencies_ms()
        out: dict[str, list[float]] = {name: [] for name in WINDOWED}
        for window in windows(len(self.emits), WINDOW, DEVICE_BATCH):
            rate, cpu = rate_and_cpu(self.pulls[0], self.cpu0, self.emits, self.cpus, window)
            p50, p90 = latency_quantiles(latencies, window)
            out["throughput"].append(rate)
            out["cpu_ms_per_item"].append(cpu * 1e3)
            out["p50_ms"].append(p50)
            out["p90_ms"].append(p90)
        return out

    def fps(self) -> float:
        return fast_side(self.per_window()["throughput"], "higher")


def run_phase(engine, inputs: list[np.ndarray], seconds: float, recorder=None) -> Phase:
    phase = Phase()

    def feed():
        deadline = None
        i = 0
        while True:
            now = time.perf_counter()
            if deadline is None:
                deadline = now + seconds
            elif now >= deadline:
                return
            k = i % len(inputs)
            frame = inputs[k].astype(np.float32)
            if recorder is not None:
                recorder.tag(frame, i)
            phase.pulls.append(now)
            phase.order.append(k)
            yield frame
            i += 1

    phase.cpu0 = time.process_time()
    for result in engine.process_frames(feed()):
        phase.emits.append(time.perf_counter())
        phase.cpus.append(time.process_time())
        phase.detections.append(_detection_key(result))
    return phase


def check(cascade, inputs: list[np.ndarray], phase: Phase) -> tuple[int, int]:
    """``(checks, mismatches)`` of a phase against the reference backend.

    Every item must equal the first item made from the same input plane
    (a held duplicate, or a later pass over the pool), and every
    ``CHECK_EVERY``-th distinct plane must equal the ``reference``
    backend's ``process_frame``.
    """
    reference = FaceDetectionPipeline(cascade, config=PipelineConfig(backend="reference"))
    first: dict[int, int] = {}
    distinct: list[int] = []
    checks = mismatches = 0
    for item, k in enumerate(phase.order):
        key = id(inputs[k])
        if key in first:
            checks += 1
            mismatches += phase.detections[item] != phase.detections[first[key]]
        else:
            first[key] = item
            distinct.append(item)
    for item in distinct[::CHECK_EVERY]:
        frame = inputs[phase.order[item]].astype(np.float32)
        checks += 1
        mismatches += _detection_key(reference.process_frame(frame)) != phase.detections[item]
    return checks, mismatches


def measure_setup(workload: str, inputs: list[np.ndarray], runs: int) -> list[float]:
    """Cold starts: fresh interpreter to the first device batch returned."""
    path = OUT / f"coldstart-{workload}.npy"
    np.save(path, np.stack(inputs[:DEVICE_BATCH]))
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "stream.py"), str(path)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"stream cold start failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


def _cold_start(frames_path: str) -> None:
    engine = build_engine(load_or_train("paper")[0])
    try:
        frames = np.load(frames_path).astype(np.float32)
        results = list(engine.process_frames(list(frames)))
        ready = time.perf_counter()
        if len(results) != len(frames):
            raise RuntimeError("the first device batch came back short")
    finally:
        engine.close()
    print(f"ready {ready!r}", flush=True)


def measure(workload: str, inputs: list[np.ndarray], seconds: float, *, trace: bool,
            cold_starts: int) -> dict:
    """Run one stream workload; end-to-end metrics, or per-layer ones under ``trace``."""
    cascade = load_or_train("paper")[0]
    # cold starts before and after the timed phase, so that one slow
    # spell of a shared host reaches fewer of them
    after = cold_starts // 2
    setup = [] if trace else measure_setup(workload, inputs, cold_starts - after)
    base_kb = proc_status_kb("self", "VmRSS")
    engine = build_engine(cascade)
    try:
        warm = [frame.astype(np.float32) for frame in inputs[: 2 * DEVICE_BATCH]]
        list(engine.process_frames(warm))
        if trace:
            plain = run_phase(engine, inputs, seconds / 4)
            recorder = tracing.Recorder()
            tracing.install(recorder)
            phase = run_phase(engine, inputs, seconds, recorder)
        else:
            phase = run_phase(engine, inputs, seconds)
            peak_kb = proc_status_kb("self", "VmHWM")
    finally:
        engine.close()

    n = len(phase.emits)
    if trace:
        since = phase.pulls[0]
        metrics = tracing.layer_metrics(recorder, since, phase.wall_s, WORKERS)
        waits, forms, infers, rest, sizes = [], [], [], [], []
        for span in tracing.batches(recorder, since):
            items = span[tracing.ITEMS]
            infer = span[tracing.END] - span[tracing.START]
            for i in items:
                wait = span[tracing.START] - phase.pulls[i]
                waits.append(wait)
                forms.append(phase.pulls[items[-1]] - phase.pulls[items[0]])
                infers.append(infer)
                rest.append(phase.emits[i] - phase.pulls[i] - wait - infer)
                sizes.append(len(items))
        metrics.update(tracing.dispatch_metrics(waits, forms, infers, rest, sizes))
        metrics["trace.overhead_ratio"] = (plain.fps() / phase.fps(), "ratio", n)
        tracing.write_chrome(OUT / f"bench-trace-{workload}.json", recorder, since, 0)
    else:
        setup += measure_setup(workload, inputs, after)
        metrics = summarise(phase.per_window())
        metrics["peak_rss_mb"] = ((peak_kb - base_kb) / 1024, "MB", 1)
        metrics["setup_s"] = (median(setup), "s", len(setup))
    checks, mismatches = check(cascade, inputs, phase)
    return {"attempted": n, "failed": mismatches, "checks": checks, "metrics": metrics}


if __name__ == "__main__":
    _cold_start(sys.argv[1])
