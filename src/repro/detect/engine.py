"""Batched multi-frame throughput engine.

The paper's headline mechanism overlaps *pyramid scales* on the device;
this module applies the same idea one level up and overlaps *frames* on
the host.  :class:`DetectionEngine` runs N frames in flight, one
:class:`~repro.detect.devicebatch.FrameWorkspace` per worker (the one
workspace kind: it runs single frames and fused device batches through
the lane-parallel executor of :mod:`repro.detect.devicebatch`), with
bounded in-flight frames (backpressure: the input iterator is only
advanced when a slot frees) and strictly ordered output.

:class:`ShardingMode` selects the executor: ``threads`` (the original
``concurrent.futures`` thread pool — cooperative under the GIL, cheap
hand-off), ``processes`` (a persistent ``ProcessPoolExecutor`` whose
workers each build their own pipeline once from a picklable
:class:`~repro.detect.pipeline.PipelineSpec`, with frame pixels moved
through a :class:`~repro.video.shm.SharedFrameRing` instead of pickles —
true multi-core parallelism), or ``auto`` (processes whenever more than
one worker meets more than one core).  Both sharded paths keep the
ordered-output and ``max_in_flight`` contracts exactly, and both are
byte-identical to serial ``process_frame``.

With ``batch_across_frames`` on, :func:`_iter_groups` cuts the stream
into runs of consecutive same-shaped frames and each run is one
``process_batch`` call.  Otherwise each frame gets its own
:class:`~repro.gpusim.scheduler.ScheduleResult`; :func:`batch_report`
aggregates either kind into a :class:`~repro.gpusim.batch.BatchReport`.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from collections.abc import Iterable, Iterator
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.backend.base import ComputeBackend
from repro.detect.devicebatch import FrameWorkspace
from repro.detect.pipeline import FaceDetectionPipeline, FrameResult
from repro.detect.shard import (
    ShardReply,
    WorkerSpec,
    init_worker,
    probe_shard,
    process_shard,
    process_shard_batch,
)
from repro.errors import ConfigurationError, WorkerCrashError
from repro.gpusim.batch import BatchReport
from repro.gpusim.scheduler import ExecutionMode
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.video.shm import SharedFrameRing, SlotTicket

__all__ = [
    "FrameWorkspace",
    "DetectionEngine",
    "EngineRun",
    "ShardingMode",
    "batch_report",
]

#: start method consulted when the engine is not given one explicitly
START_METHOD_ENV = "REPRO_START_METHOD"

#: ``spawn`` everywhere: it is the macOS/Windows (and Python >= 3.14
#: Linux) default, so Linux runs exercise the same pickling semantics,
#: and it never inherits locks mid-acquire the way ``fork`` can.
DEFAULT_START_METHOD = "spawn"


class ShardingMode(Enum):
    """How :class:`DetectionEngine` distributes frames across workers.

    The paper's Fig. 5 lesson is that concurrency only pays once the
    executors are genuinely independent — per-scale kernels sharing one
    SM serialise, per-scale kernels on idle SMs overlap.  The host-side
    analogue: worker *threads* share one GIL (they overlap only the
    NumPy regions that release it), worker *processes* are fully
    independent.  ``AUTO`` applies that rule directly: processes
    whenever more than one worker meets more than one core, threads
    otherwise (on a single core, process transport costs buy nothing).
    """

    THREADS = "threads"
    PROCESSES = "processes"
    AUTO = "auto"

    @classmethod
    def coerce(cls, value: "ShardingMode | str") -> "ShardingMode":
        """Accept a mode or its name; reject anything else loudly."""
        if isinstance(value, ShardingMode):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ConfigurationError(
                f"unknown sharding mode {value!r}; "
                f"choose from {[m.value for m in cls]}"
            ) from None

    def resolve(self, workers: int) -> "ShardingMode":
        """Collapse ``AUTO`` to a concrete mode for ``workers`` workers."""
        if self is not ShardingMode.AUTO:
            return self
        if workers >= 2 and (os.cpu_count() or 1) >= 2:
            return ShardingMode.PROCESSES
        return ShardingMode.THREADS


# ---------------------------------------------------------------------------
# the engine: N frames in flight, ordered output, bounded memory


def _as_luma(frame) -> np.ndarray:
    """Accept raw arrays, ``FramePacket``-likes and ``DecodedFrame``-likes."""
    luma = getattr(frame, "luma", frame)
    return np.asarray(luma)


def _iter_groups(frames: Iterable, max_batch: int) -> Iterator[tuple[int, list[np.ndarray]]]:
    """Yield ``(start_index, lumas)`` runs of consecutive same-shaped frames.

    The engine's one batch-formation rule: groups never reorder frames
    (FIFO output depends on it), never mix frame shapes (fused kernels
    need congruent pyramids) and never exceed ``max_batch`` frames.
    Each group's lumas are the caller's arrays, uncopied.
    """
    if max_batch < 1:
        raise ConfigurationError(f"max_batch must be >= 1, got {max_batch}")
    buf: list[np.ndarray] = []
    start = 0
    for index, frame in enumerate(frames):
        luma = np.asarray(_as_luma(frame))
        if buf and (luma.shape != buf[0].shape or len(buf) >= max_batch):
            yield start, buf
            buf = []
        if not buf:
            start = index
        buf.append(luma)
    if buf:
        yield start, buf


def _bridge_frame_metrics(metrics: MetricsRegistry, result: FrameResult) -> None:
    """Bridge one frame's simulated-layer statistics into the registry.

    Fig. 7's per-depth rejection histogram feeds the stage-1 rejection
    rate; the schedule's :class:`~repro.gpusim.counters.PerfCounters`
    feed the branch counters the paper's Section VI-A quotes.
    """
    _bridge_cascade_metrics(metrics, result)
    _bridge_schedule_metrics(metrics, result.schedule)


def _bridge_batch_metrics(metrics: MetricsRegistry, results: list[FrameResult]) -> None:
    """Bridge one device batch's results without double-counting.

    Cascade and fast-path statistics are genuinely per frame; the fused
    :class:`~repro.gpusim.scheduler.ScheduleResult` is shared by every
    frame of the batch, so its ``sim.*`` counters land once per distinct
    schedule object.
    """
    seen: set[int] = set()
    for result in results:
        _bridge_cascade_metrics(metrics, result)
        key = id(result.schedule)
        if key not in seen:
            seen.add(key)
            _bridge_schedule_metrics(metrics, result.schedule)


def _bridge_schedule_metrics(metrics: MetricsRegistry, schedule) -> None:
    metrics.counter("sim.kernels").inc(len(schedule.timeline.traces))
    metrics.counter("sim.device_seconds").inc(schedule.makespan_s)
    metrics.counter("sim.branches").inc(schedule.total.branches)
    metrics.counter("sim.divergent_branches").inc(schedule.total.divergent_branches)


def _bridge_cascade_metrics(metrics: MetricsRegistry, result: FrameResult) -> None:
    anchors = 0
    rejected_stage1 = 0
    for kr in result.kernel_results:
        hist = np.asarray(kr.rejections_by_depth)
        anchors += int(hist.sum())
        rejected_stage1 += int(hist[0])
    metrics.counter("cascade.anchors").inc(anchors)
    metrics.counter("cascade.anchors_rejected_stage1").inc(rejected_stage1)
    fp = result.fastpath
    if fp is not None:
        metrics.counter("fastpath.frames").inc()
        metrics.counter("fastpath.frames_reused").inc(fp.frames_reused)
        metrics.counter("fastpath.levels").inc(fp.levels)
        metrics.counter("fastpath.levels_reused").inc(fp.levels_reused)
        metrics.counter("fastpath.tiles").inc(fp.tiles)
        metrics.counter("fastpath.tiles_clean").inc(fp.tiles_clean)
        metrics.counter("fastpath.tiles_pruned").inc(fp.tiles_pruned)
        metrics.counter("fastpath.anchors").inc(fp.anchors)
        metrics.counter("fastpath.anchors_evaluated").inc(fp.anchors_evaluated)
        metrics.counter("fastpath.anchors_carried").inc(fp.anchors_carried)
        metrics.counter("fastpath.anchors_pruned").inc(fp.anchors_pruned)
        metrics.counter("fastpath.proposal_kept").inc(fp.proposal_kept)
        metrics.counter("fastpath.proposal_total").inc(fp.proposal_total)


@dataclass
class EngineRun:
    """Outcome of :meth:`DetectionEngine.run`: results plus the aggregate."""

    results: list[FrameResult]
    report: BatchReport


def batch_report(results: Iterable[FrameResult], wall_s: float | None = None) -> BatchReport:
    """Aggregate per-frame results into a :class:`BatchReport`.

    Sums every level's Fig. 7 rejection histogram on top of the schedule
    aggregation done by :meth:`BatchReport.from_schedules`.  Frames that
    rode one fused device batch (``result.device_batch`` set) share a
    single fused schedule — it is aggregated once, not once per frame;
    per-frame schedules (including fast-path replays of a cached
    schedule) keep their one-entry-per-frame accounting.
    """
    results = list(results)
    rejections: np.ndarray | None = None
    for frame in results:
        for kr in frame.kernel_results:
            hist = np.asarray(kr.rejections_by_depth, dtype=np.int64)
            if rejections is None:
                rejections = hist.copy()
            elif hist.shape == rejections.shape:
                rejections += hist
    schedules = []
    seen_fused: set[int] = set()
    for frame in results:
        if frame.device_batch is not None:
            key = id(frame.schedule)
            if key in seen_fused:
                continue
            seen_fused.add(key)
        schedules.append(frame.schedule)
    return BatchReport.from_schedules(
        schedules,
        rejections_by_depth=rejections,
        wall_s=wall_s,
    )


class DetectionEngine:
    """Run many frames through one pipeline with N frames in flight.

    Parameters
    ----------
    pipeline:
        The shared :class:`FaceDetectionPipeline` (read-only per frame).
    workers:
        Worker threads.  ``0`` processes frames inline (still through one
        reusable workspace); ``None`` uses ``os.cpu_count()``.
    queue_depth:
        Extra frames in flight beyond the worker count.  Bounds memory:
        the source iterator is only advanced when an in-flight slot frees
        (backpressure), and at most ``max(workers, 1) + queue_depth``
        frames exist at once.
    mode:
        Execution mode for the simulated schedules; defaults to the
        pipeline's configured mode.
    sharding:
        :class:`ShardingMode` (or its name): ``threads`` | ``processes``
        | ``auto``.  Process sharding runs a *persistent* worker-process
        pool — each worker rebuilds the pipeline once from the picklable
        :meth:`~repro.detect.pipeline.FaceDetectionPipeline.spec` and
        keeps its workspace across frames — and moves frame pixels
        through a shared-memory ring instead of pickling them.  Call
        :meth:`close` (or use the engine as a context manager) when done
        so the pool and the ring are torn down promptly.
    start_method:
        Multiprocessing start method for process sharding.  Defaults to
        ``REPRO_START_METHOD`` or ``spawn`` (the strictest semantics:
        what macOS/Windows enforce).
    tracer:
        Span tracer shared by every worker workspace; each frame is
        wrapped in a ``frame`` span (carrying its index, the Chrome
        exporter's anchor) around the per-stage spans.  Defaults to the
        pipeline's tracer (normally the no-op :data:`NULL_TRACER`).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` receiving
        per-frame queue-wait / latency / ordered-emit histograms, the
        in-flight gauge, and counters bridged from the simulated layer
        (Fig. 7 stage-1 rejections, branch counters).
    """

    def __init__(
        self,
        pipeline: FaceDetectionPipeline,
        *,
        workers: int | None = None,
        queue_depth: int = 2,
        mode: ExecutionMode | None = None,
        sharding: ShardingMode | str = ShardingMode.THREADS,
        start_method: str | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        fastpath_stream: str | None = "default",
        batch_across_frames: bool = False,
        device_batch: int | None = None,
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        if queue_depth < 0:
            raise ConfigurationError(f"queue_depth must be >= 0, got {queue_depth}")
        if device_batch is not None and device_batch < 1:
            raise ConfigurationError(f"device_batch must be >= 1, got {device_batch}")
        self._pipeline = pipeline
        self._workers = workers
        self._queue_depth = queue_depth
        self._mode = mode
        self._requested_sharding = ShardingMode.coerce(sharding)
        self._sharding = self._requested_sharding.resolve(workers)
        start_method = (
            start_method or os.environ.get(START_METHOD_ENV) or DEFAULT_START_METHOD
        )
        if start_method not in multiprocessing.get_all_start_methods():
            raise ConfigurationError(
                f"unknown start method {start_method!r}; choose from "
                f"{multiprocessing.get_all_start_methods()}"
            )
        self._start_method = start_method
        #: stream identity handed to every worker workspace; ``None``
        #: disables temporal reuse (what the serving layer passes, since
        #: its frames come from many unrelated clients)
        self._fastpath_stream = fastpath_stream
        self._batch = bool(batch_across_frames)
        self._device_batch = device_batch
        self._tracer = tracer if tracer is not None else pipeline.tracer
        self._metrics = metrics
        self._free: list[FrameWorkspace] = []
        self._lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None
        self._ring: SharedFrameRing | None = None
        self._thread_pool: ThreadPoolExecutor | None = None
        self._outstanding: set[Future] = set()
        self._submit_count = 0

    @property
    def pipeline(self) -> FaceDetectionPipeline:
        return self._pipeline

    @property
    def backend(self) -> ComputeBackend:
        """The pipeline's compute backend (shared by every workspace)."""
        return self._pipeline.backend

    @property
    def compute_device(self) -> str:
        """Device kind the numeric kernels run on (``cpu``/``cuda``/``mps``)."""
        return self._pipeline.compute_device

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def sharding(self) -> ShardingMode:
        """The concrete sharding mode (``AUTO`` already resolved)."""
        return self._sharding

    @property
    def requested_sharding(self) -> ShardingMode:
        """The mode as configured, before ``AUTO`` resolution."""
        return self._requested_sharding

    @property
    def start_method(self) -> str:
        """The multiprocessing start method process sharding uses."""
        return self._start_method

    @property
    def max_in_flight(self) -> int:
        """Upper bound on simultaneously materialised frames.

        With ``batch_across_frames`` and an explicit ``device_batch``,
        the window widens to at least one full device batch — batch
        formation must be able to materialise the frames it fuses.
        """
        base = max(self._workers, 1) + self._queue_depth
        if self._batch and self._device_batch is not None:
            return max(base, self._device_batch)
        return base

    @property
    def batch_across_frames(self) -> bool:
        """Whether in-flight frames fuse into device batches."""
        return self._batch

    @property
    def device_batch(self) -> int:
        """Frames fused per device batch (defaults to the in-flight window)."""
        if self._device_batch is not None:
            return self._device_batch
        return max(self._workers, 1) + self._queue_depth

    # -- process-sharding lifecycle -----------------------------------------

    def close(self) -> None:
        """Tear down the persistent worker pools and the frame ring.

        Idempotent.  The engine remains usable — the next run lazily
        rebuilds whatever executor its sharding mode needs.
        """
        pool, self._pool = self._pool, None
        ring, self._ring = self._ring, None
        threads, self._thread_pool = self._thread_pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        if threads is not None:
            threads.shutdown(wait=True)
        if ring is not None:
            ring.close()

    def __enter__(self) -> "DetectionEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    def _ensure_thread_pool(self) -> ThreadPoolExecutor:
        """The persistent worker-thread pool (thread sharding only).

        Built lazily on first use and kept across :meth:`process_frames`
        / :meth:`submit` calls, so long-lived feeders (the serving
        micro-batcher) pay thread start-up once, not per batch — the
        worker workspaces in ``self._free`` were already reused this way.
        """
        if self._thread_pool is None:
            self._thread_pool = ThreadPoolExecutor(
                max_workers=self._workers, thread_name_prefix="repro-engine"
            )
        return self._thread_pool

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            spec = WorkerSpec(
                pipeline=self._pipeline.spec(),
                tracing=self._tracer.enabled,
                trace_origin=self._tracer.origin,
                stream=self._fastpath_stream,
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self._workers,
                mp_context=multiprocessing.get_context(self._start_method),
                initializer=init_worker,
                initargs=(spec,),
            )
            if self._pipeline.backend.capabilities.device_bound:
                self._verify_worker_probes()
        return self._pool

    def _verify_worker_probes(self) -> None:
        """Refuse to shard a device-bound backend that workers can't probe.

        A spawn child re-resolves the pinned ``(backend, device)`` from
        scratch; device handles do not survive the process boundary, so
        the pool is only trusted after every worker slot has answered a
        :func:`~repro.detect.shard.probe_shard` round-trip with the same
        backend and device the parent resolved.  Any initializer failure
        or mismatch tears the pool down and raises with both sides'
        probe evidence instead of letting frames silently fall back.
        """
        expected_backend = self._pipeline.backend.name
        expected_device = self._pipeline.compute_device
        parent_report = self._pipeline.probe_report
        parent_path = parent_report.path if parent_report is not None else "(none)"
        futures = [self._pool.submit(probe_shard) for _ in range(self._workers)]
        try:
            replies = [f.result() for f in futures]
        except BaseException as exc:
            self.close()
            raise ConfigurationError(
                f"cannot shard device-bound backend {expected_backend!r} "
                f"({expected_device}) across processes: worker probe failed "
                f"({exc}); parent probe path: {parent_path}"
            ) from exc
        for reply in replies:
            if (
                reply["backend"] != expected_backend
                or reply["device"] != expected_device
            ):
                self.close()
                raise ConfigurationError(
                    f"cannot shard device-bound backend {expected_backend!r} "
                    f"({expected_device}) across processes: worker pid "
                    f"{reply['pid']} resolved {reply['backend']!r} "
                    f"({reply['device']}) via {reply['probe_path']}; "
                    f"parent probe path: {parent_path}"
                )

    def _stash(self, luma: np.ndarray) -> SlotTicket | None:
        """Place a frame in the shared ring; ``None`` -> pickle fallback.

        The ring is sized on first use: ``max_in_flight`` slots of the
        first frame's byte size, which the backpressure bound keeps
        sufficient.  Larger frames arriving later (mixed-resolution
        streams) ship inline instead.
        """
        if self._ring is None:
            self._ring = SharedFrameRing(self.max_in_flight, int(luma.nbytes))
        return self._ring.put(luma)

    def _checkout(self) -> FrameWorkspace:
        with self._lock:
            if self._free:
                return self._free.pop()
        return self._pipeline.make_workspace(
            tracer=self._tracer, stream=self._fastpath_stream
        )

    def _release(self, workspace: FrameWorkspace) -> None:
        with self._lock:
            self._free.append(workspace)

    def _process_one(
        self, workspace: FrameWorkspace, luma: np.ndarray, mode: ExecutionMode | None
    ) -> FrameResult:
        """Process one frame on one worker (overridable for tests)."""
        return workspace.process_frame(luma, mode)

    def _job(
        self,
        index: int,
        luma: np.ndarray,
        mode: ExecutionMode | None,
        submit_ts: float | None = None,
        trace: str | None = None,
    ) -> FrameResult:
        metrics = self._metrics
        if metrics is not None and submit_ts is not None:
            metrics.histogram("engine.queue_wait_s").observe(time.perf_counter() - submit_ts)
        workspace = self._checkout()
        try:
            start = time.perf_counter()
            span_args = (
                {"frame": index} if trace is None else {"frame": index, "trace": trace}
            )
            with self._tracer.span("frame", cat="engine", **span_args):
                result = self._process_one(workspace, luma, mode)
            if hasattr(result, "worker"):
                result.worker = threading.current_thread().name
            if metrics is not None:
                metrics.histogram("engine.frame_latency_s").observe(time.perf_counter() - start)
                metrics.counter("engine.frames").inc()
                _bridge_frame_metrics(metrics, result)
            return result
        finally:
            self._release(workspace)

    def _batch_job(
        self,
        index: int,
        lumas: list[np.ndarray],
        mode: ExecutionMode | None,
        submit_ts: float | None = None,
        trace: str | None = None,
    ):
        """Run one device batch on one worker; returns a ``BatchExecution``."""
        metrics = self._metrics
        if metrics is not None and submit_ts is not None:
            metrics.histogram("engine.queue_wait_s").observe(time.perf_counter() - submit_ts)
        workspace = self._checkout()
        try:
            start = time.perf_counter()
            span_args = {"frame": index, "batch": len(lumas)}
            if trace is not None:
                span_args["trace"] = trace
            with self._tracer.span("frame", cat="engine", **span_args):
                execution = workspace.process_batch(lumas, mode)
            worker = threading.current_thread().name
            for result in execution.results:
                result.worker = worker
            if metrics is not None:
                self._record_batch_metrics(
                    metrics, execution, time.perf_counter() - start
                )
            return execution
        finally:
            self._release(workspace)

    def _record_batch_metrics(
        self, metrics: MetricsRegistry, execution, elapsed: float
    ) -> None:
        """Batch-aware metric accounting: amortised latencies, one schedule.

        ``engine.frame_latency_s`` observes the *amortised* per-frame
        time once per frame (so means and percentiles stay per-frame
        quantities), ``engine.batch_size`` records the formation
        distribution, and the transfer counters mirror the batch's
        :class:`~repro.detect.devicebatch.TransferStats`.
        """
        n = len(execution.results)
        per_frame = elapsed / max(n, 1)
        latency = metrics.histogram("engine.frame_latency_s")
        for _ in range(n):
            latency.observe(per_frame)
        metrics.counter("engine.frames").inc(n)
        metrics.counter("engine.batched_frames").inc(n)
        metrics.histogram("engine.batch_size").observe(n)
        metrics.counter("engine.device_batches").inc()
        if execution.fused:
            metrics.counter("engine.device_batches_fused").inc()
        transfers = execution.transfers
        metrics.counter("engine.device_transfers").inc(transfers.h2d + transfers.d2h)
        metrics.counter("engine.device_transfers_saved").inc(transfers.saved)
        _bridge_batch_metrics(metrics, execution.results)

    def process_frames(
        self, frames: Iterable, mode: ExecutionMode | None = None
    ) -> Iterator[FrameResult]:
        """Yield one :class:`FrameResult` per frame, in input order.

        Output order is the submission order by construction (a FIFO of
        futures), independent of which worker finishes first — under
        both thread and process sharding.

        With ``batch_across_frames`` on, consecutive same-shaped frames
        are fused into device batches of up to :attr:`device_batch`
        frames first; ordering, backpressure (counted in frames, not
        batches) and results are unchanged — detections are
        byte-identical to the per-frame path on bitexact backends.
        """
        mode = mode or self._mode
        metrics = self._metrics
        if self._batch:
            if self._workers > 0 and self._sharding is ShardingMode.PROCESSES:
                yield from self._frames_processes_batched(frames, mode)
            else:
                yield from self._frames_batched(frames, mode)
            return
        if self._workers > 0 and self._sharding is ShardingMode.PROCESSES:
            yield from self._frames_processes(frames, mode)
            return
        if self._workers == 0:
            workspace = self._checkout()
            try:
                for index, frame in enumerate(frames):
                    start = time.perf_counter()
                    with self._tracer.span("frame", cat="engine", frame=index):
                        result = self._process_one(workspace, _as_luma(frame), mode)
                    if metrics is not None:
                        metrics.histogram("engine.frame_latency_s").observe(
                            time.perf_counter() - start
                        )
                        metrics.counter("engine.frames").inc()
                        _bridge_frame_metrics(metrics, result)
                    yield result
            finally:
                self._release(workspace)
            return

        limit = self.max_in_flight
        in_flight = metrics.gauge("engine.in_flight") if metrics is not None else None
        done_at: dict = {}
        pool = self._ensure_thread_pool()
        pending: deque = deque()

        def emit() -> FrameResult:
            future = pending.popleft()
            result = future.result()
            if metrics is not None:
                done_ts = done_at.pop(future, None)
                if done_ts is not None:
                    metrics.histogram("engine.emit_wait_s").observe(
                        max(0.0, time.perf_counter() - done_ts)
                    )
                in_flight.set(len(pending))
            return result

        try:
            for index, frame in enumerate(frames):
                submit_ts = time.perf_counter() if metrics is not None else None
                future = pool.submit(self._job, index, _as_luma(frame), mode, submit_ts)
                if metrics is not None:
                    future.add_done_callback(
                        lambda f: done_at.__setitem__(f, time.perf_counter())
                    )
                pending.append(future)
                if in_flight is not None:
                    in_flight.set(len(pending))
                if len(pending) >= limit:
                    yield emit()
            while pending:
                yield emit()
        finally:
            # The pool is persistent now, so an abandoned generator no
            # longer waits via executor shutdown; keep the old contract
            # (no frame still running once the call is over) explicitly.
            while pending:
                future = pending.popleft()
                try:
                    future.result()
                except Exception:
                    pass

    # -- the device-batched paths -------------------------------------------

    def _frames_batched(
        self, frames: Iterable, mode: ExecutionMode | None
    ) -> Iterator[FrameResult]:
        """Inline / thread-sharded frame stream with device batching."""
        metrics = self._metrics
        batch_limit = self.device_batch
        if self._workers == 0:
            workspace = self._checkout()
            try:
                for start_index, lumas in _iter_groups(frames, batch_limit):
                    start = time.perf_counter()
                    with self._tracer.span(
                        "frame", cat="engine", frame=start_index, batch=len(lumas)
                    ):
                        execution = workspace.process_batch(lumas, mode)
                    if metrics is not None:
                        self._record_batch_metrics(
                            metrics, execution, time.perf_counter() - start
                        )
                    yield from execution.results
            finally:
                self._release(workspace)
            return

        limit = self.max_in_flight
        in_flight = metrics.gauge("engine.in_flight") if metrics is not None else None
        pool = self._ensure_thread_pool()
        pending: deque[tuple[Future, int]] = deque()
        frames_pending = 0

        def emit() -> list[FrameResult]:
            nonlocal frames_pending
            future, count = pending.popleft()
            execution = future.result()
            frames_pending -= count
            if in_flight is not None:
                in_flight.set(frames_pending)
            return execution.results

        try:
            for start_index, lumas in _iter_groups(frames, batch_limit):
                submit_ts = time.perf_counter() if metrics is not None else None
                future = pool.submit(
                    self._batch_job, start_index, lumas, mode, submit_ts
                )
                pending.append((future, len(lumas)))
                frames_pending += len(lumas)
                if in_flight is not None:
                    in_flight.set(frames_pending)
                while pending and frames_pending >= limit:
                    yield from emit()
            while pending:
                yield from emit()
        finally:
            while pending:
                future, _count = pending.popleft()
                try:
                    future.result()
                except Exception:
                    pass

    def _frames_processes_batched(
        self, frames: Iterable, mode: ExecutionMode | None
    ) -> Iterator[FrameResult]:
        """Process-sharded frame stream with device batching.

        Same contract as :meth:`_frames_processes`; whole batches ship
        inline (a fused batch is one pickle, already amortised) instead
        of through the per-frame shared-memory ring.
        """
        metrics = self._metrics
        tracer = self._tracer
        limit = self.max_in_flight
        batch_limit = self.device_batch
        in_flight = metrics.gauge("engine.in_flight") if metrics is not None else None
        pool = self._ensure_pool()
        pending: deque[tuple[Future, int]] = deque()
        frames_pending = 0

        def crash(exc: BaseException) -> WorkerCrashError:
            self._abandon_pool(pending)
            return WorkerCrashError(
                f"engine worker process died (start method "
                f"{self._start_method!r}); the pool has been torn down and "
                f"will be rebuilt on the next run"
            )

        def emit() -> list[FrameResult]:
            nonlocal frames_pending
            future, count = pending.popleft()
            try:
                reply = future.result()
            except BrokenProcessPool as exc:
                raise crash(exc) from exc
            frames_pending -= count
            if tracer.enabled and reply.spans:
                tracer.extend(reply.spans)
            if metrics is not None:
                metrics.histogram("engine.queue_wait_s").observe(reply.queue_wait_s)
                self._record_batch_metrics(metrics, reply.execution, reply.latency_s)
                in_flight.set(frames_pending)
            return reply.execution.results

        try:
            for start_index, lumas in _iter_groups(frames, batch_limit):
                submit_ts = time.perf_counter()
                try:
                    future = pool.submit(
                        process_shard_batch, start_index, lumas, mode, submit_ts
                    )
                except BrokenProcessPool as exc:
                    raise crash(exc) from exc
                pending.append((future, len(lumas)))
                frames_pending += len(lumas)
                if in_flight is not None:
                    in_flight.set(frames_pending)
                while pending and frames_pending >= limit:
                    yield from emit()
            while pending:
                yield from emit()
        finally:
            while pending:
                future, _count = pending.popleft()
                try:
                    future.result()
                except Exception:
                    pass

    # -- the long-lived submission hook -------------------------------------

    def _track(self, future: Future) -> Future:
        with self._lock:
            self._outstanding.add(future)
        future.add_done_callback(self._untrack)
        return future

    def _untrack(self, future: Future) -> None:
        with self._lock:
            self._outstanding.discard(future)

    def submit(
        self,
        frame,
        mode: ExecutionMode | None = None,
        *,
        trace: str | None = None,
    ) -> "Future[FrameResult]":
        """Submit one frame to the persistent worker pool; returns a future.

        The long-lived feeding hook for callers that do not have their
        whole frame stream up front (the serving micro-batcher): unlike
        :meth:`process_frames` it never rebuilds executors or
        workspaces per call — both persist until :meth:`close` — and it
        applies **no backpressure**; the caller owns admission control.
        Results carry no ordering guarantee beyond the returned future.

        ``trace`` is the request's trace id: it is attached to the
        worker-side ``frame`` span (thread *and* process sharding, so
        the merged Chrome trace carries it) and the returned result's
        ``worker`` field names the thread or worker pid that ran it.

        Under process sharding the frame rides the shared-memory ring
        when a slot is free (falling back to pickle transport when the
        ring is saturated, since an unbounded submitter is not covered
        by the ``max_in_flight`` slot bound), and a dead worker resolves
        the future with :class:`~repro.errors.WorkerCrashError`.
        """
        mode = mode or self._mode
        luma = np.asarray(_as_luma(frame))
        with self._lock:
            index = self._submit_count
            self._submit_count += 1
        if self._workers > 0 and self._sharding is ShardingMode.PROCESSES:
            return self._submit_process(index, luma, mode, trace)
        submit_ts = time.perf_counter() if self._metrics is not None else None
        if self._workers == 0:
            future: Future = Future()
            try:
                future.set_result(self._job(index, luma, mode, submit_ts, trace))
            except Exception as exc:  # surfaced through the future, like a pool
                future.set_exception(exc)
            return future
        return self._track(
            self._ensure_thread_pool().submit(
                self._job, index, luma, mode, submit_ts, trace
            )
        )

    def _submit_process(
        self,
        index: int,
        luma: np.ndarray,
        mode: ExecutionMode | None,
        trace: str | None = None,
    ) -> "Future[FrameResult]":
        pool = self._ensure_pool()
        if self._ring is None:
            self._ring = SharedFrameRing(self.max_in_flight, int(luma.nbytes))
        ring = self._ring
        ticket = ring.put(luma) if ring.free_slots > 0 else None
        submit_ts = time.perf_counter()
        outer: Future = Future()

        def _release(t: SlotTicket | None) -> None:
            if t is not None and self._ring is ring:
                ring.release(t)

        try:
            inner = pool.submit(
                process_shard,
                index,
                ticket,
                None if ticket is not None else luma,
                mode,
                submit_ts,
                trace,
            )
        except BrokenProcessPool as exc:
            _release(ticket)
            self._abandon_pool(deque())
            raise WorkerCrashError(
                f"engine worker process died (start method {self._start_method!r}); "
                f"the pool has been torn down and will be rebuilt on the next run"
            ) from exc

        def _complete(f: Future) -> None:
            try:
                reply: ShardReply = f.result()
            except BrokenProcessPool as exc:
                _release(ticket)
                self._abandon_pool(deque())
                crash = WorkerCrashError(
                    f"engine worker process died (start method "
                    f"{self._start_method!r}); the pool has been torn down "
                    f"and will be rebuilt on the next run"
                )
                crash.__cause__ = exc
                outer.set_exception(crash)
                return
            except Exception as exc:
                _release(ticket)
                outer.set_exception(exc)
                return
            _release(ticket)
            if self._tracer.enabled and reply.spans:
                self._tracer.extend(reply.spans)
            metrics = self._metrics
            if metrics is not None:
                metrics.histogram("engine.queue_wait_s").observe(reply.queue_wait_s)
                metrics.histogram("engine.frame_latency_s").observe(reply.latency_s)
                metrics.counter("engine.frames").inc()
                _bridge_frame_metrics(metrics, reply.result)
            outer.set_result(reply.result)

        inner.add_done_callback(_complete)
        return self._track(outer)

    def submit_batch(
        self,
        frames,
        mode: ExecutionMode | None = None,
        *,
        traces: list[str | None] | None = None,
    ) -> "list[Future[FrameResult]]":
        """Submit a coalesced request batch as device batches; one future each.

        The serving micro-batcher's hook: its already-coalesced window
        of requests fuses into device batches (consecutive same-shaped
        frames, up to :attr:`device_batch` per batch) instead of N
        independent :meth:`submit` calls.  Futures resolve in any order
        but map 1:1 onto ``frames``; when ``batch_across_frames`` is
        off, this degrades to a plain per-frame :meth:`submit` loop.
        Like :meth:`submit`, no backpressure — admission control stays
        with the caller.
        """
        mode = mode or self._mode
        lumas = [np.asarray(_as_luma(frame)) for frame in frames]
        if traces is not None and len(traces) != len(lumas):
            raise ConfigurationError(
                f"traces ({len(traces)}) must match frames ({len(lumas)})"
            )
        if not self._batch:
            trace_list = traces if traces is not None else [None] * len(lumas)
            return [
                self.submit(luma, mode, trace=trace)
                for luma, trace in zip(lumas, trace_list)
            ]
        futures: "list[Future[FrameResult]]" = [Future() for _ in lumas]
        for start_index, group in _iter_groups(lumas, self.device_batch):
            outer = futures[start_index : start_index + len(group)]
            trace = None
            if traces is not None:
                trace = next(
                    (
                        t
                        for t in traces[start_index : start_index + len(group)]
                        if t is not None
                    ),
                    None,
                )
            self._dispatch_batch(group, mode, trace, outer)
        return futures

    def _dispatch_batch(
        self,
        lumas: list[np.ndarray],
        mode: ExecutionMode | None,
        trace: str | None,
        outer: "list[Future[FrameResult]]",
    ) -> None:
        with self._lock:
            index = self._submit_count
            self._submit_count += len(lumas)
        for future in outer:
            self._track(future)

        def fan_out(execution) -> None:
            for future, result in zip(outer, execution.results):
                future.set_result(result)

        def fail_all(exc: BaseException) -> None:
            for future in outer:
                if not future.done():
                    future.set_exception(exc)

        if self._workers > 0 and self._sharding is ShardingMode.PROCESSES:
            self._dispatch_batch_process(index, lumas, mode, trace, fan_out, fail_all)
            return
        submit_ts = time.perf_counter() if self._metrics is not None else None
        if self._workers == 0:
            try:
                execution = self._batch_job(index, lumas, mode, submit_ts, trace)
            except Exception as exc:
                fail_all(exc)
            else:
                fan_out(execution)
            return
        inner = self._ensure_thread_pool().submit(
            self._batch_job, index, lumas, mode, submit_ts, trace
        )

        def _complete(f: Future) -> None:
            try:
                execution = f.result()
            except Exception as exc:
                fail_all(exc)
                return
            fan_out(execution)

        inner.add_done_callback(_complete)

    def _dispatch_batch_process(
        self,
        index: int,
        lumas: list[np.ndarray],
        mode: ExecutionMode | None,
        trace: str | None,
        fan_out,
        fail_all,
    ) -> None:
        pool = self._ensure_pool()
        submit_ts = time.perf_counter()

        def crash(exc: BaseException) -> WorkerCrashError:
            self._abandon_pool(deque())
            err = WorkerCrashError(
                f"engine worker process died (start method "
                f"{self._start_method!r}); the pool has been torn down "
                f"and will be rebuilt on the next run"
            )
            err.__cause__ = exc
            return err

        try:
            inner = pool.submit(
                process_shard_batch, index, lumas, mode, submit_ts, trace
            )
        except BrokenProcessPool as exc:
            fail_all(crash(exc))
            return

        def _complete(f: Future) -> None:
            try:
                reply = f.result()
            except BrokenProcessPool as exc:
                fail_all(crash(exc))
                return
            except Exception as exc:
                fail_all(exc)
                return
            if self._tracer.enabled and reply.spans:
                self._tracer.extend(reply.spans)
            metrics = self._metrics
            if metrics is not None:
                metrics.histogram("engine.queue_wait_s").observe(reply.queue_wait_s)
                self._record_batch_metrics(metrics, reply.execution, reply.latency_s)
            fan_out(reply.execution)

        inner.add_done_callback(_complete)

    def drain(self) -> None:
        """Block until every :meth:`submit`-ted frame has completed.

        Exceptions stay in their futures — drain only waits.  New
        submissions racing a drain are waited for too (the loop repeats
        until the outstanding set is observed empty).
        """
        while True:
            with self._lock:
                pending = list(self._outstanding)
            if not pending:
                return
            futures_wait(pending)

    # -- the process-sharded path -------------------------------------------

    def _frames_processes(
        self, frames: Iterable, mode: ExecutionMode | None
    ) -> Iterator[FrameResult]:
        """Shard frames across the persistent worker-process pool.

        Identical contract to the threaded path: FIFO futures give
        ordered output, ``max_in_flight`` bounds both the pending window
        and the ring occupancy (slot acquired at submit, released at
        emit).  A dead worker surfaces as :class:`~repro.errors.
        WorkerCrashError` — never a hang — and poisons neither the
        engine (pool and ring are rebuilt on the next run) nor the
        caller's other engines.
        """
        metrics = self._metrics
        tracer = self._tracer
        limit = self.max_in_flight
        in_flight = metrics.gauge("engine.in_flight") if metrics is not None else None
        pool = self._ensure_pool()
        pending: deque[tuple] = deque()
        done_at: dict = {}

        def emit() -> FrameResult:
            future, ticket = pending.popleft()
            try:
                reply: ShardReply = future.result()
            except BrokenProcessPool as exc:
                self._abandon_pool(pending)
                raise WorkerCrashError(
                    f"engine worker process died (start method "
                    f"{self._start_method!r}); the pool has been torn down and "
                    f"will be rebuilt on the next run"
                ) from exc
            finally:
                if ticket is not None and self._ring is not None:
                    self._ring.release(ticket)
            if tracer.enabled and reply.spans:
                tracer.extend(reply.spans)
            if metrics is not None:
                done_ts = done_at.pop(future, None)
                if done_ts is not None:
                    metrics.histogram("engine.emit_wait_s").observe(
                        max(0.0, time.perf_counter() - done_ts)
                    )
                metrics.histogram("engine.queue_wait_s").observe(reply.queue_wait_s)
                metrics.histogram("engine.frame_latency_s").observe(reply.latency_s)
                metrics.counter("engine.frames").inc()
                _bridge_frame_metrics(metrics, reply.result)
                in_flight.set(len(pending))
            return reply.result

        try:
            for index, frame in enumerate(frames):
                luma = np.asarray(_as_luma(frame))
                ticket = self._stash(luma)
                submit_ts = time.perf_counter()
                try:
                    future = pool.submit(
                        process_shard,
                        index,
                        ticket,
                        None if ticket is not None else luma,
                        mode,
                        submit_ts,
                    )
                except BrokenProcessPool as exc:
                    # the crash can surface here first: a dead worker marks
                    # the pool broken before the victim future is emitted
                    if ticket is not None and self._ring is not None:
                        self._ring.release(ticket)
                    self._abandon_pool(pending)
                    raise WorkerCrashError(
                        f"engine worker process died (start method "
                        f"{self._start_method!r}); the pool has been torn "
                        f"down and will be rebuilt on the next run"
                    ) from exc
                if metrics is not None:
                    future.add_done_callback(
                        lambda f: done_at.__setitem__(f, time.perf_counter())
                    )
                pending.append((future, ticket))
                if in_flight is not None:
                    in_flight.set(len(pending))
                if len(pending) >= limit:
                    yield emit()
            while pending:
                yield emit()
        finally:
            if pending:
                # the consumer abandoned the generator mid-run: workers may
                # still be reading their slots, so drain before releasing
                self._drain_abandoned(pending)

    def _drain_abandoned(self, pending: deque) -> None:
        while pending:
            future, ticket = pending.popleft()
            try:
                future.result()
            except Exception:
                pass
            if ticket is not None and self._ring is not None:
                self._ring.release(ticket)

    def _abandon_pool(self, pending: deque) -> None:
        """After a worker crash: tear everything down for a clean rebuild."""
        pending.clear()
        pool, self._pool = self._pool, None
        ring, self._ring = self._ring, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        if ring is not None:
            ring.close()

    def run(self, frames: Iterable, mode: ExecutionMode | None = None) -> EngineRun:
        """Process every frame and aggregate the batch report."""
        results = list(self.process_frames(frames, mode))
        return EngineRun(results=results, report=batch_report(results))
