"""Worker-process side of the process-sharded detection engine.

One pool worker == one long-lived :class:`~repro.detect.engine.
FrameWorkspace`, mirroring the paper's resident per-stream kernel state:
the pool initializer (:func:`init_worker`) builds the pipeline *once*
from a picklable :class:`~repro.detect.pipeline.PipelineSpec` — cascade
re-encoded to constant memory locally, backend re-resolved from the
registry — and every subsequent frame only ships a tiny
:class:`~repro.video.shm.SlotTicket` in and a :class:`ShardReply` out.

Everything here must stay importable by ``spawn`` children with no
engine state attached: module-level functions only (``fork`` would
tolerate closures; ``spawn`` — the macOS/Windows default this engine
defaults to everywhere — does not).

Tracing: the worker's tracer is constructed with the *parent's* origin
(``perf_counter`` reads a system-wide monotonic clock), so spans land on
the parent timeline directly; each reply carries the frame's spans
re-tagged with the worker pid, giving the merged Chrome trace one lane
per worker process.

Fault injection: ``REPRO_ENGINE_TEST_CRASH_INDEX`` (hard-kill the worker
at frame N) and ``REPRO_ENGINE_TEST_DELAY_S`` (``"idx:seconds,..."``
per-frame sleeps) let the tests exercise crash surfacing and
out-of-order completion through real process boundaries.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from repro.detect.pipeline import FrameResult, PipelineSpec
from repro.errors import ConfigurationError
from repro.gpusim.scheduler import ExecutionMode
from repro.obs.tracer import Span, Tracer
from repro.video.shm import SlotTicket, attach_view

__all__ = [
    "WorkerSpec",
    "ShardReply",
    "ShardBatchReply",
    "init_worker",
    "probe_shard",
    "process_shard",
    "process_shard_batch",
]

CRASH_INDEX_ENV = "REPRO_ENGINE_TEST_CRASH_INDEX"
DELAY_ENV = "REPRO_ENGINE_TEST_DELAY_S"


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to build its resident state, picklable."""

    pipeline: PipelineSpec
    #: record per-stage spans (parent tracer enabled)
    tracing: bool = False
    #: parent tracer's ``perf_counter`` origin — the shared timeline zero
    trace_origin: float = 0.0
    #: fast-path stream identity for the workspace's temporal delta
    #: cache (``None`` disables temporal reuse in this worker)
    stream: str | None = "default"


@dataclass
class ShardReply:
    """One processed frame coming back from a worker process."""

    index: int
    result: FrameResult
    pid: int
    #: submit-to-start wait measured on the shared monotonic clock
    queue_wait_s: float
    #: worker-side processing time for this frame
    latency_s: float
    #: this frame's spans, pid-tagged and on the parent timeline
    spans: list[Span] | None = None


@dataclass
class ShardBatchReply:
    """One fused device batch coming back from a worker process.

    ``execution`` is the worker's whole
    :class:`~repro.detect.devicebatch.BatchExecution`; pickling keeps
    the fused schedule *shared* across the batch's results (references
    within one pickle are preserved), so the parent's batch-aware
    aggregation still counts it once.
    """

    index: int
    execution: object
    pid: int
    #: submit-to-start wait measured on the shared monotonic clock
    queue_wait_s: float
    #: worker-side processing time for the whole batch
    latency_s: float
    #: the batch's spans, pid-tagged and on the parent timeline
    spans: list[Span] | None = None


# Per-process resident state, created once by init_worker.  A plain dict
# (not dataclass instances on the engine) so spawn pickling never sees it.
_STATE: dict = {}


def init_worker(spec: WorkerSpec) -> None:
    """Pool initializer: build the resident workspace for this process."""
    tracer = Tracer(enabled=spec.tracing, origin=spec.trace_origin)
    pipeline = spec.pipeline.build(tracer=tracer)
    _STATE["workspace"] = pipeline.make_workspace(tracer=tracer, stream=spec.stream)
    _STATE["tracer"] = tracer
    _STATE["crash_index"] = _parse_crash_index()
    _STATE["delays"] = _parse_delays()


def probe_shard() -> dict:
    """Report the backend/device this worker actually resolved.

    The engine calls this once per pool after :func:`init_worker` to
    verify a device-bound backend really came up inside every worker —
    a spawn child re-probes from scratch and may land differently (or
    not at all) when the device is tied to the parent process.
    """
    workspace = _STATE.get("workspace")
    if workspace is None:
        raise ConfigurationError("worker used before init_worker ran")
    pipeline = workspace.pipeline
    report = pipeline.probe_report
    return {
        "pid": os.getpid(),
        "backend": pipeline.backend.name,
        "device": pipeline.compute_device,
        "probe_path": report.path if report is not None else None,
    }


def _parse_crash_index() -> int | None:
    raw = os.environ.get(CRASH_INDEX_ENV)
    return int(raw) if raw else None


def _parse_delays() -> dict[int, float]:
    raw = os.environ.get(DELAY_ENV, "")
    delays: dict[int, float] = {}
    for item in raw.split(","):
        if ":" in item:
            idx, seconds = item.split(":", 1)
            delays[int(idx)] = float(seconds)
    return delays


def _pid_tagged(spans: list[Span], pid: int) -> list[Span]:
    """Rewrite span thread identity to the worker pid.

    Every worker process runs frames on its own MainThread, so raw
    thread names would collide across workers; one Chrome-trace lane per
    pid is the truthful picture of the sharded engine.
    """
    return [
        Span(
            name=s.name,
            cat=s.cat,
            start_us=s.start_us,
            dur_us=s.dur_us,
            thread_id=pid,
            thread_name=f"pid {pid}",
            args={**s.args, "pid": pid},
        )
        for s in spans
    ]


def process_shard(
    index: int,
    ticket: SlotTicket | None,
    inline_luma: np.ndarray | None,
    mode: ExecutionMode | None,
    submit_ts: float,
    trace: str | None = None,
) -> ShardReply:
    """Process one frame inside a pool worker.

    ``ticket`` points at the frame's pixels in the shared ring (the fast
    path); ``inline_luma`` is the pickle fallback for frames that did
    not fit a slot.  Exactly one of the two is set.  ``trace`` is the
    request's trace id under serving — it lands on the worker's
    ``frame`` span (and therefore in the merged Chrome trace) and on the
    reply's result for request attribution in the server's log.
    """
    workspace = _STATE.get("workspace")
    if workspace is None:
        raise ConfigurationError("worker used before init_worker ran")
    start = time.perf_counter()
    if _STATE["crash_index"] == index:
        # fault injection: die the way a real segfault/OOM kill would —
        # no exception, no cleanup — so the engine's crash surfacing is
        # tested against the worst case, not a polite error.
        os._exit(1)
    delay = _STATE["delays"].get(index)
    if delay:
        time.sleep(delay)
    luma = attach_view(ticket) if ticket is not None else inline_luma
    tracer: Tracer = _STATE["tracer"]
    span_args = {"frame": index} if trace is None else {"frame": index, "trace": trace}
    with tracer.span("frame", cat="engine", **span_args):
        result = workspace.process_frame(luma, mode)
    result.worker = f"pid {os.getpid()}"
    latency = time.perf_counter() - start
    spans = None
    if tracer.enabled:
        spans = _pid_tagged(tracer.drain(), os.getpid())
    return ShardReply(
        index=index,
        result=result,
        pid=os.getpid(),
        queue_wait_s=max(0.0, start - submit_ts),
        latency_s=latency,
        spans=spans,
    )


def process_shard_batch(
    index: int,
    lumas: list[np.ndarray],
    mode: ExecutionMode | None,
    submit_ts: float,
    trace: str | None = None,
) -> ShardBatchReply:
    """Process one fused device batch inside a pool worker.

    ``index`` is the first frame's index (the batch covers
    ``index .. index + len(lumas) - 1``).  Batches ship inline — one
    pickle per batch is already the amortised transport — rather than
    through the per-frame shared-memory ring.
    """
    workspace = _STATE.get("workspace")
    if workspace is None:
        raise ConfigurationError("worker used before init_worker ran")
    start = time.perf_counter()
    tracer: Tracer = _STATE["tracer"]
    span_args = {"frame": index, "batch": len(lumas)}
    if trace is not None:
        span_args["trace"] = trace
    with tracer.span("frame", cat="engine", **span_args):
        execution = workspace.process_batch(lumas, mode)
    pid = os.getpid()
    for result in execution.results:
        result.worker = f"pid {pid}"
    latency = time.perf_counter() - start
    spans = None
    if tracer.enabled:
        spans = _pid_tagged(tracer.drain(), pid)
    return ShardBatchReply(
        index=index,
        execution=execution,
        pid=pid,
        queue_wait_s=max(0.0, start - submit_ts),
        latency_s=latency,
        spans=spans,
    )
