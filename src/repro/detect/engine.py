"""Batched multi-frame throughput engine.

The paper's headline mechanism overlaps *pyramid scales* on the device;
this module applies the same idea one level up and overlaps *frames* on
the host.  :class:`DetectionEngine` runs N frames in flight, one
:class:`~repro.detect.devicebatch.FrameWorkspace` per worker (the one
workspace kind: it runs single frames and fused device batches through
the lane-parallel executor of :mod:`repro.detect.devicebatch`), with
bounded in-flight frames (backpressure: the input iterator is only
advanced when a slot frees) and strictly ordered output.

Every path reaches the workers through one primitive,
:meth:`DetectionEngine._submit_group`: one group of consecutive
same-shaped frames (cut by :func:`_iter_groups`, at most
:attr:`~DetectionEngine.device_batch` frames with ``batch_across_frames``
on, one frame otherwise) goes to a ``concurrent.futures.Executor`` as one
:func:`~repro.detect.shard.run_group` job and comes back as one future.
Only the executor varies: an inline one for ``workers=0``, a persistent
thread pool, or a persistent process pool.  One completion hook merges
worker spans, records metrics, releases ring slots and turns a dead
worker into :class:`~repro.errors.WorkerCrashError`.  The public methods
are thin layers over it: :meth:`~DetectionEngine.submit_batch` groups
its frames, :meth:`~DetectionEngine.submit` is a batch of one, and
:meth:`~DetectionEngine.process_frames` is an ordered, bounded FIFO of
group futures.

:class:`ShardingMode` selects the pool: ``threads`` (cooperative under
the GIL, cheap hand-off), ``processes`` (workers each build their own
pipeline once from a picklable
:class:`~repro.detect.pipeline.PipelineSpec`, with frame pixels moved
through a :class:`~repro.video.shm.SharedFrameRing` instead of pickles —
true multi-core parallelism), or ``auto`` (processes whenever more than
one worker meets more than one core).  Every mode keeps the
ordered-output and ``max_in_flight`` contracts and is byte-identical to
serial ``process_frame``.  :func:`batch_report` aggregates per-frame or
fused schedules into a :class:`~repro.gpusim.batch.BatchReport`.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from collections.abc import Iterable, Iterator
from concurrent.futures import BrokenExecutor, Executor, Future, ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from repro.backend.base import ComputeBackend
from repro.detect.devicebatch import FrameWorkspace
from repro.detect.pipeline import FaceDetectionPipeline, FrameResult
from repro.detect.shard import ShardReply, WorkerSpec, init_worker, probe_shard, run_group
from repro.errors import ConfigurationError, WorkerCrashError
from repro.gpusim.batch import BatchReport
from repro.gpusim.scheduler import ExecutionMode
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

if TYPE_CHECKING:  # process sharding only: imported where a pool is built
    from concurrent.futures import ProcessPoolExecutor

    from repro.video.shm import SharedFrameRing

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
    Each group's lumas are the caller's arrays, uncopied, and the
    generator keeps no reference to a frame outside the group it is
    forming: once a group is yielded, its frames stay live only while
    the consumer holds it.  A full group is yielded before the next
    frame is pulled, so groups of one add no read-ahead.
    """
    if max_batch < 1:
        raise ConfigurationError(f"max_batch must be >= 1, got {max_batch}")
    buf: list[np.ndarray] = []
    start = 0
    for index, frame in enumerate(frames):
        luma = np.asarray(_as_luma(frame))
        if buf and luma.shape != buf[0].shape:
            yield start, buf
            buf = []
        if not buf:
            start = index
        buf.append(luma)
        del frame, luma
        if len(buf) >= max_batch:
            yield start, buf
            buf = []
    if buf:
        yield start, buf


def _record_group(metrics: MetricsRegistry, reply: ShardReply, batched: bool) -> None:
    """One group's metrics: per-frame latencies, batching, simulated layer.

    ``engine.frame_latency_s`` observes the *amortised* per-frame time
    once per frame (so means and percentiles stay per-frame quantities).
    With ``batched`` (``batch_across_frames`` on), ``engine.batch_size``
    records the formation distribution and the transfer counters mirror
    the group's :class:`~repro.detect.devicebatch.TransferStats`.  Fig.
    7's per-depth rejection histogram feeds the stage-1 rejection rate
    per frame; a schedule's :class:`~repro.gpusim.counters.PerfCounters`
    feed the ``sim.*`` branch counters the paper's Section VI-A quotes
    once per distinct schedule (a fused batch shares one).
    """
    execution = reply.result
    results = execution.results
    n = len(results)
    metrics.histogram("engine.queue_wait_s").observe(reply.queue_wait_s)
    latency = metrics.histogram("engine.frame_latency_s")
    for _ in range(n):
        latency.observe(reply.latency_s / n)
    metrics.counter("engine.frames").inc(n)
    if batched:
        metrics.counter("engine.batched_frames").inc(n)
        metrics.histogram("engine.batch_size").observe(n)
        metrics.counter("engine.device_batches").inc()
        if execution.fused:
            metrics.counter("engine.device_batches_fused").inc()
        transfers = execution.transfers
        metrics.counter("engine.device_transfers").inc(transfers.h2d + transfers.d2h)
        metrics.counter("engine.device_transfers_saved").inc(transfers.saved)
    seen: set[int] = set()
    for result in results:
        _bridge_cascade_metrics(metrics, result)
        schedule = result.schedule
        if id(schedule) not in seen:
            seen.add(id(schedule))
            metrics.counter("sim.kernels").inc(len(schedule.timeline.traces))
            metrics.counter("sim.device_seconds").inc(schedule.makespan_s)
            metrics.counter("sim.branches").inc(schedule.total.branches)
            metrics.counter("sim.divergent_branches").inc(
                schedule.total.divergent_branches
            )


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


class _InlineExecutor(Executor):
    """``workers=0``: run each job at submit; its future is already done."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:  # surfaced through the future, like a pool
            future.set_exception(exc)
        return future


_INLINE = _InlineExecutor()


def _fan_out(group: Future, futures: list[Future]) -> None:
    """Resolve a group's per-frame futures from its group future."""
    exc = group.exception()
    if exc is not None:
        for future in futures:
            future.set_exception(exc)
        return
    for future, result in zip(futures, group.result()):
        future.set_result(result)


class DetectionEngine:
    """Run many frames through one pipeline with N frames in flight.

    Parameters
    ----------
    pipeline:
        The shared :class:`FaceDetectionPipeline` (read-only per frame).
    workers:
        Worker threads or processes.  ``0`` processes frames inline, in
        the caller's thread (still through one reusable workspace);
        ``None`` uses ``os.cpu_count()``.
    queue_depth:
        Extra frames in flight beyond the worker count.  Bounds memory:
        the source iterator is only advanced when an in-flight slot frees
        (backpressure): with one frame per group, at most
        ``max(workers, 1) + queue_depth`` frames are live at once
        (:attr:`max_in_flight`).
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
        what macOS/Windows enforce).  Checked only when the engine
        shards across processes, the one mode that uses it.
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
        self._sharding = ShardingMode.coerce(sharding).resolve(workers)
        start_method = (
            start_method or os.environ.get(START_METHOD_ENV) or DEFAULT_START_METHOD
        )
        if self._uses_processes:
            import multiprocessing

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
    def start_method(self) -> str:
        """The multiprocessing start method process sharding uses."""
        return self._start_method

    @property
    def _uses_processes(self) -> bool:
        """Whether groups run on the process pool (``workers=0`` runs inline).

        Only then does the engine import :mod:`multiprocessing` and the
        shared-memory ring, and check the start method.
        """
        return self._workers > 0 and self._sharding is ShardingMode.PROCESSES

    @property
    def max_in_flight(self) -> int:
        """Upper bound on live frames when :meth:`process_frames` pulls.

        A frame is live from its pull until its group completes: the
        stream loop hands each group to its job and keeps no reference
        to it.  The source is advanced only while fewer than this many
        frames are in flight, and the group being formed counts on top.
        So a pull sees fewer than ``max_in_flight`` live frames whenever
        groups are single frames, or full device batches that fill the
        window (the stream engine's shape).  With ``batch_across_frames``
        and an explicit ``device_batch``, the window widens to at least
        one full device batch — batch formation must be able to
        materialise the frames it fuses.
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
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

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

    def _executor(self) -> Executor:
        """The executor this engine's sharding mode runs groups on."""
        if self._uses_processes:
            return self._ensure_pool()
        if self._workers == 0:
            return _INLINE
        return self._ensure_thread_pool()

    def _run_group(
        self,
        index: int,
        lumas: list[np.ndarray],
        mode: ExecutionMode | None,
        submit_ts: float,
        traces: list[str | None] | None = None,
    ) -> ShardReply:
        """The inline/thread-side job: one group on a checked-out workspace.

        The per-group seam (tests override it to scramble completion).
        """
        workspace = self._checkout()
        try:
            return run_group(index, lumas, mode, submit_ts, traces, workspace)
        finally:
            self._release(workspace)

    # -- the one dispatch primitive -----------------------------------------

    def _submit_group(
        self,
        executor: Executor,
        index: int,
        lumas: list[np.ndarray],
        mode: ExecutionMode | None,
        traces: list[str | None] | None = None,
    ) -> "Future[list[FrameResult]]":
        """Submit one group of same-shaped frames; one future for the group.

        On a process pool every frame rides a free slot of the shared
        ring when it fits and ships inline otherwise.  The ring is sized
        on first use: ``max_in_flight`` slots of the first frame's byte
        size, which the backpressure bound keeps sufficient for a
        stream; unbounded submitters and larger frames arriving later
        (mixed-resolution streams) fall back to inline transport.
        """
        job, frames, ring, tickets = self._run_group, lumas, None, []
        if self._uses_processes:
            from repro.video.shm import SharedFrameRing

            with self._lock:
                if self._ring is None:
                    self._ring = SharedFrameRing(
                        self.max_in_flight, int(lumas[0].nbytes)
                    )
                ring = self._ring
                tickets = [ring.put(luma) if ring.free_slots else None for luma in lumas]
            frames = [
                luma if ticket is None else ticket
                for luma, ticket in zip(lumas, tickets)
            ]
            job = run_group
        try:
            inner = executor.submit(job, index, frames, mode, time.perf_counter(), traces)
        except BrokenExecutor as exc:
            # a dead worker can mark the pool broken before any victim
            # future resolves; the completion hook handles both alike
            inner = Future()
            inner.set_exception(exc)
        outer: "Future[list[FrameResult]]" = Future()
        inner.add_done_callback(
            lambda done: self._complete(done, outer, executor, ring, tickets)
        )
        return outer

    def _complete(
        self,
        inner: Future,
        outer: Future,
        executor: Executor,
        ring: SharedFrameRing | None,
        tickets: list,
    ) -> None:
        """The one completion hook: slots, crash surfacing, spans, metrics."""
        if ring is not None:
            with self._lock:
                for ticket in tickets:
                    if ticket is not None:
                        ring.release(ticket)
        try:
            reply: ShardReply = inner.result()
        except BrokenExecutor as exc:
            # BrokenProcessPool's base: only the process pool breaks (the
            # thread pool has no initializer to fail)
            self._abandon(executor, ring)
            crash = WorkerCrashError(
                f"engine worker process died (start method "
                f"{self._start_method!r}); the pool has been torn down "
                f"and will be rebuilt on the next run"
            )
            crash.__cause__ = exc
            outer.set_exception(crash)
            return
        except Exception as exc:
            outer.set_exception(exc)
            return
        if reply.spans:
            self._tracer.extend(reply.spans)
        if self._metrics is not None:
            _record_group(self._metrics, reply, self._batch)
        outer.set_result(reply.result.results)

    def _abandon(self, pool: Executor, ring: SharedFrameRing | None) -> None:
        """After a worker crash: tear down the pool and ring that failed.

        Only those — a crash reported late must not take down a pool the
        engine has already rebuilt.
        """
        with self._lock:
            if self._pool is pool:
                self._pool = None
            if ring is not None and self._ring is ring:
                self._ring = None
        pool.shutdown(wait=False, cancel_futures=True)
        if ring is not None:
            ring.close()

    # -- the layers over it -------------------------------------------------

    @property
    def _group_cap(self) -> int:
        return self.device_batch if self._batch else 1

    def process_frames(
        self, frames: Iterable, mode: ExecutionMode | None = None
    ) -> Iterator[FrameResult]:
        """Yield one :class:`FrameResult` per frame, in input order.

        Output order is the submission order by construction (a FIFO of
        group futures), independent of which worker finishes first.
        Backpressure is counted in live frames: the source is only
        advanced while fewer than :attr:`max_in_flight` frames are in
        flight (``workers=0`` yields each group before pulling the next
        frame), and a group's frames die when its job completes, before
        the next group is pulled — this loop drops its own reference at
        submit, on every executor.
        A dead worker process surfaces as
        :class:`~repro.errors.WorkerCrashError` — never a hang — and the
        pool and ring are rebuilt on the next run.

        With ``batch_across_frames`` on, consecutive same-shaped frames
        are fused into device batches of up to :attr:`device_batch`
        frames first; ordering, backpressure and results are unchanged —
        detections are byte-identical to the per-frame path on bitexact
        backends.
        """
        mode = mode or self._mode
        metrics = self._metrics
        executor = self._executor()
        limit = self.max_in_flight if self._workers else 1
        in_flight = metrics.gauge("engine.in_flight") if metrics is not None else None
        done_at: dict = {}
        pending: deque[tuple[Future, int]] = deque()
        frames_pending = 0

        def emit() -> list[FrameResult]:
            nonlocal frames_pending
            future, count = pending.popleft()
            results = future.result()
            frames_pending -= count
            if metrics is not None:
                # the done callback may still be running when result() wakes
                done_ts = done_at.pop(future, None)
                if done_ts is not None:
                    metrics.histogram("engine.emit_wait_s").observe(
                        max(0.0, time.perf_counter() - done_ts)
                    )
                in_flight.set(frames_pending)
            return results

        try:
            for index, lumas in _iter_groups(frames, self._group_cap):
                count = len(lumas)
                future = self._submit_group(executor, index, lumas, mode)
                # the job is now the group's only holder: its frames die
                # when it completes, not when the next group is formed
                del lumas
                if metrics is not None:
                    future.add_done_callback(
                        lambda f: done_at.__setitem__(f, time.perf_counter())
                    )
                pending.append((future, count))
                del future
                frames_pending += count
                if in_flight is not None:
                    in_flight.set(frames_pending)
                while pending and frames_pending >= limit:
                    yield from emit()
            while pending:
                yield from emit()
        finally:
            # an abandoned generator or a crash: no group is still running
            # (or holding ring slots) once the call is over
            futures_wait([future for future, _ in pending])

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

        A batch of one: ``submit_batch([frame], traces=[trace])[0]``.
        The long-lived feeding hook for callers that do not have their
        whole frame stream up front: unlike :meth:`process_frames` it
        applies **no backpressure**; the caller owns admission control.
        Executors and workspaces persist until :meth:`close`.  ``trace``
        is the request's trace id (see :meth:`submit_batch`).
        """
        return self.submit_batch([frame], mode, traces=[trace])[0]

    def submit_batch(
        self,
        frames,
        mode: ExecutionMode | None = None,
        *,
        traces: list[str | None] | None = None,
    ) -> "list[Future[FrameResult]]":
        """Submit frames as groups to the persistent pool; one future each.

        The serving micro-batcher's entry: its already-coalesced window
        of requests is cut into groups like a stream (consecutive
        same-shaped frames, up to :attr:`device_batch` per group with
        ``batch_across_frames`` on, one frame otherwise).  Futures
        resolve in any order but map 1:1 onto ``frames``.  Like
        :meth:`submit`, no backpressure — admission control stays with
        the caller.

        ``traces`` are the requests' trace ids: each group's worker-side
        ``frame`` span carries its first id as ``trace`` and, for a
        fused group carrying several, all of them as ``traces`` (thread
        *and* process sharding, so the merged Chrome trace carries
        them); each result's ``worker`` names the thread or worker pid
        that ran it.  A dead worker resolves the futures of its group
        with :class:`~repro.errors.WorkerCrashError`.
        """
        mode = mode or self._mode
        lumas = [np.asarray(_as_luma(frame)) for frame in frames]
        if traces is not None and len(traces) != len(lumas):
            raise ConfigurationError(
                f"traces ({len(traces)}) must match frames ({len(lumas)})"
            )
        executor = self._executor()
        futures: "list[Future[FrameResult]]" = []
        for start, group in _iter_groups(lumas, self._group_cap):
            with self._lock:
                index = self._submit_count
                self._submit_count += len(group)
            group_traces = None if traces is None else traces[start : start + len(group)]
            group_future = self._submit_group(executor, index, group, mode, group_traces)
            outer = [self._track(Future()) for _ in group]
            futures.extend(outer)
            group_future.add_done_callback(lambda done, outer=outer: _fan_out(done, outer))
        return futures

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

    def run(self, frames: Iterable, mode: ExecutionMode | None = None) -> EngineRun:
        """Process every frame and aggregate the batch report."""
        results = list(self.process_frames(frames, mode))
        return EngineRun(results=results, report=batch_report(results))
