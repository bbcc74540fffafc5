"""The engine's one worker job, and the worker-process state behind it.

:func:`run_group` runs one group of consecutive same-shaped frames —
a fused device batch or a single frame — on one workspace and returns
one :class:`ShardReply`.  Every executor of
:class:`~repro.detect.engine.DetectionEngine` runs it: the inline and
thread executors hand it a checked-out
:class:`~repro.detect.devicebatch.FrameWorkspace`; a process worker
runs it against its resident one.

One pool worker == one long-lived workspace, mirroring the paper's
resident per-stream kernel state: the pool initializer
(:func:`init_worker`) builds the pipeline *once* from a picklable
:class:`~repro.detect.pipeline.PipelineSpec` — cascade re-encoded to
constant memory locally, backend re-resolved from the registry — and
every group only ships one :class:`~repro.video.shm.SlotTicket` per
frame (an inline array for a frame that found no ring slot) in and a
:class:`ShardReply` out.

Everything here must stay importable by ``spawn`` children with no
engine state attached: module-level functions only (``fork`` would
tolerate closures; ``spawn`` — the macOS/Windows default this engine
defaults to everywhere — does not).

Tracing: the worker's tracer is constructed with the *parent's* origin
(``perf_counter`` reads a system-wide monotonic clock), so spans land on
the parent timeline directly; each reply carries the group's spans
re-tagged with the worker pid, giving the merged Chrome trace one lane
per worker process.

Fault injection (process workers only): ``REPRO_ENGINE_TEST_CRASH_INDEX``
(hard-kill the worker running the group that covers frame N) and
``REPRO_ENGINE_TEST_DELAY_S`` (``"idx:seconds,..."``, summed over the
frames a group covers) let the tests exercise crash surfacing and
out-of-order completion through real process boundaries.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass

from repro.detect.pipeline import PipelineSpec
from repro.errors import ConfigurationError
from repro.gpusim.scheduler import ExecutionMode
from repro.obs.tracer import Span, Tracer

__all__ = [
    "WorkerSpec",
    "ShardReply",
    "init_worker",
    "probe_shard",
    "run_group",
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
    """One processed group coming back from a worker.

    ``result`` is the group's
    :class:`~repro.detect.devicebatch.BatchExecution`; pickling keeps a
    fused schedule *shared* across the group's results (references
    within one pickle are preserved), so the parent's batch-aware
    aggregation still counts it once.
    """

    index: int
    result: object
    pid: int
    #: submit-to-start wait measured on the shared monotonic clock
    queue_wait_s: float
    #: worker-side processing time for the whole group
    latency_s: float
    #: the group's spans, pid-tagged and on the parent timeline
    #: (process workers only; thread workers record into the shared tracer)
    spans: list[Span] | None = None


# Per-process resident state, created once by init_worker.  A plain dict
# (not dataclass instances on the engine) so spawn pickling never sees it.
_STATE: dict = {}


def init_worker(spec: WorkerSpec) -> None:
    """Pool initializer: build the resident workspace for this process."""
    tracer = Tracer(enabled=spec.tracing, origin=spec.trace_origin)
    pipeline = spec.pipeline.build(tracer=tracer)
    _STATE["workspace"] = pipeline.make_workspace(tracer=tracer, stream=spec.stream)
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


def _inject_faults(index: int, count: int) -> None:
    """Apply the test hooks to the group covering ``index .. index+count-1``."""
    covered = range(index, index + count)
    if _STATE["crash_index"] in covered:
        # die the way a real segfault/OOM kill would — no exception, no
        # cleanup — so the engine's crash surfacing is tested against
        # the worst case, not a polite error
        os._exit(1)
    delay = sum(_STATE["delays"].get(i, 0.0) for i in covered)
    if delay:
        time.sleep(delay)


def run_group(
    index: int,
    frames: list,
    mode: ExecutionMode | None,
    submit_ts: float,
    traces: list[str | None] | None = None,
    workspace=None,
) -> ShardReply:
    """Run one group of same-shaped frames through one ``process_batch``.

    ``index`` is the first frame's index (the group covers ``index ..
    index + len(frames) - 1``).  ``workspace`` is the caller's
    checked-out workspace on the inline/thread side; ``None`` means this
    process's resident one (a pool worker), whose frames arrive as
    ring tickets or inline arrays.

    The ``frame`` span carries the group's first trace id as ``trace``
    and, when the group carries more than one, every id as ``traces``,
    so each request of a fused group finds its worker span.
    """
    start = time.perf_counter()
    resident = workspace is None
    if resident:
        from repro.video.shm import SlotTicket, attach_view

        workspace = _STATE.get("workspace")
        if workspace is None:
            raise ConfigurationError("worker used before init_worker ran")
        _inject_faults(index, len(frames))
        frames = [
            attach_view(frame) if isinstance(frame, SlotTicket) else frame
            for frame in frames
        ]
    span_args: dict = {"frame": index}
    if len(frames) > 1:
        span_args["batch"] = len(frames)
    ids = [t for t in traces or () if t is not None]
    if ids:
        span_args["trace"] = ids[0]
    if len(ids) > 1:
        span_args["traces"] = ids
    tracer: Tracer = workspace.tracer
    with tracer.span("frame", cat="engine", **span_args):
        execution = workspace.process_batch(frames, mode)
    pid = os.getpid()
    worker = f"pid {pid}" if resident else threading.current_thread().name
    for result in execution.results:
        result.worker = worker
    latency = time.perf_counter() - start
    spans = _pid_tagged(tracer.drain(), pid) if resident and tracer.enabled else None
    return ShardReply(
        index=index,
        result=execution,
        pid=pid,
        queue_wait_s=max(0.0, start - submit_ts),
        latency_s=latency,
        spans=spans,
    )
