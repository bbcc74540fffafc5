"""Dynamic micro-batching: coalesce concurrent requests into engine batches.

The engine earns its throughput from batches (Fig. 5/6 of the paper:
utilisation comes from keeping many windows in flight), but HTTP
requests arrive one at a time.  The batcher bridges the two with the
classic max-batch/max-delay policy:

* the first request of a batch opens a **collection window** of
  ``max_delay_s``;
* the batch dispatches as soon as ``max_batch`` requests are waiting
  *or* the window closes, whichever comes first — an isolated request
  pays at most ``max_delay_s`` of added latency, a burst is dispatched
  immediately at full width;
* while a batch is inferring (in an executor thread, off the event
  loop) the queue keeps accumulating, so the *next* batch forms for
  free during the current batch's inference — at saturation the engine
  never waits on the network.

Requests that aged past their admission deadline are failed at dispatch
time (fail-fast) instead of being inferred for nobody.  Per-request
``queue_wait`` and per-batch ``batch_form`` / ``infer`` spans land on
the shared tracer, so one Chrome trace shows the whole request
lifecycle next to the simulated kernel schedule.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import Executor
from typing import Callable

from repro.errors import ConfigurationError, DeadlineExpiredError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Span, Tracer
from repro.serve.admission import AdmissionTicket

__all__ = ["MicroBatcher", "RequestTelemetry"]

_STOP = object()


class RequestTelemetry:
    """Per-request timing breakdown, filled in as the request moves.

    The server allocates one per ``/v1/detect`` request and hands it to
    :meth:`MicroBatcher.submit`; the batcher fills the queue-wait /
    batch-form / infer legs and the worker attribution, the server adds
    the serialize leg, and the completed breakdown lands in the response
    body (``"timing"``) and on the request's log line.
    """

    __slots__ = (
        "trace",
        "queue_wait_s",
        "batch_form_s",
        "infer_s",
        "serialize_s",
        "batch_size",
        "worker",
        "model_version",
    )

    def __init__(self, trace: str | None = None) -> None:
        self.trace = trace
        self.queue_wait_s: float | None = None
        self.batch_form_s: float | None = None
        self.infer_s: float | None = None
        self.serialize_s: float | None = None
        self.batch_size: int | None = None
        self.worker: str | None = None
        self.model_version: str | None = None

    def timing(self) -> dict:
        """The response-body ``timing`` block (unfilled legs are null)."""
        return {
            "queue_wait_s": self.queue_wait_s,
            "batch_form_s": self.batch_form_s,
            "infer_s": self.infer_s,
            "serialize_s": self.serialize_s,
            "batch_size": self.batch_size,
        }


class _Pending:
    """One queued request: frame, ticket, telemetry, and its future answer."""

    __slots__ = ("luma", "ticket", "telemetry", "future")

    def __init__(
        self,
        luma,
        ticket: AdmissionTicket,
        future: asyncio.Future,
        telemetry: RequestTelemetry | None = None,
    ) -> None:
        self.luma = luma
        self.ticket = ticket
        self.telemetry = telemetry
        self.future = future

    @property
    def trace(self) -> str | None:
        if self.telemetry is not None and self.telemetry.trace is not None:
            return self.telemetry.trace
        return self.ticket.trace


class MicroBatcher:
    """Coalesces :meth:`submit` calls into calls of one batch function.

    Parameters
    ----------
    infer:
        ``infer(lumas, traces) -> list[FrameResult]`` run in
        ``executor`` — normally one ``run_in_executor`` hop dispatching
        a whole batch through the engine, so the executor round-trip
        cost is paid per *batch*, not per request.  ``traces`` is the
        per-frame trace-id list (``None`` entries for untraced
        requests), which the server forwards to
        :meth:`DetectionEngine.submit` so worker-side spans carry the
        request identity.
    max_batch:
        Largest batch handed to ``infer`` (``1`` disables coalescing).
    max_delay_s:
        Longest the first request of a batch waits for company.
    executor:
        The (single-threaded) executor inference runs on.
    """

    def __init__(
        self,
        infer: Callable[[list], list],
        *,
        max_batch: int = 4,
        max_delay_s: float = 0.01,
        executor: Executor,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_s < 0:
            raise ConfigurationError(f"max_delay_s must be >= 0, got {max_delay_s}")
        self._infer = infer
        self._max_batch = max_batch
        self._max_delay_s = max_delay_s
        self._executor = executor
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._metrics = metrics
        # unbounded on purpose: admission control enforces the bound, so
        # a full queue sheds with a 429 instead of blocking the loop
        self._queue: asyncio.Queue = asyncio.Queue()
        self._task: asyncio.Task | None = None
        self._closed = False

    @property
    def max_batch(self) -> int:
        return self._max_batch

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    def start(self) -> None:
        """Start the batch-forming loop on the running event loop."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="repro-batcher"
            )

    async def submit(
        self,
        luma,
        ticket: AdmissionTicket,
        telemetry: RequestTelemetry | None = None,
    ):
        """Queue one admitted frame; resolves to its ``FrameResult``.

        ``telemetry`` (optional) receives the request's queue-wait /
        batch-form / infer timings and worker attribution as the batch
        moves through dispatch.
        """
        if self._closed:
            raise ConfigurationError("submit() on a closed MicroBatcher")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait(_Pending(luma, ticket, future, telemetry))
        return await future

    async def aclose(self) -> None:
        """Finish every queued request, then stop the loop task."""
        if self._closed:
            return
        self._closed = True
        if self._task is not None:
            self._queue.put_nowait(_STOP)
            await self._task
            self._task = None

    async def _run(self) -> None:
        while True:
            first = await self._queue.get()
            if first is _STOP:
                return
            batch = [first]
            form_start = time.perf_counter()
            stop = await self._fill(batch, form_start)
            self._record_form(batch, form_start)
            live = self._expire(batch)
            if live:
                await self._dispatch(live)
            if stop:
                return

    async def _fill(self, batch: list, form_start: float) -> bool:
        """Grow ``batch`` until full or the delay window closes.

        Returns ``True`` if the stop sentinel was seen (the current
        batch still dispatches first).
        """
        deadline = form_start + self._max_delay_s
        while len(batch) < self._max_batch:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                try:
                    item = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
            else:
                try:
                    item = await asyncio.wait_for(self._queue.get(), remaining)
                except asyncio.TimeoutError:
                    break
            if item is _STOP:
                return True
            batch.append(item)
        return False

    def _expire(self, batch: list) -> list:
        """Fail aged-out requests now; return the ones worth inferring."""
        now = time.perf_counter()
        live: list[_Pending] = []
        for item in batch:
            if item.ticket.expired(now):
                if not item.future.done():
                    item.future.set_exception(
                        DeadlineExpiredError(
                            waited_s=item.ticket.waited_s(now),
                            budget_s=item.ticket.budget_s,
                            retry_after_s=item.ticket.retry_after_s,
                        )
                    )
            else:
                live.append(item)
        return live

    async def _dispatch(self, batch: list) -> None:
        loop = asyncio.get_running_loop()
        dispatch_pc = time.perf_counter()
        self._record_queue_wait(batch, dispatch_pc)
        try:
            lumas = [item.luma for item in batch]
            traces = [item.trace for item in batch]
            with self._tracer.span("infer", cat="serve", batch=len(batch)):
                results = await loop.run_in_executor(
                    self._executor, self._infer, lumas, traces
                )
            if len(results) != len(batch):
                raise ConfigurationError(
                    f"infer returned {len(results)} results for a "
                    f"batch of {len(batch)}"
                )
        except Exception as exc:
            for item in batch:
                if not item.future.done():
                    item.future.set_exception(exc)
            return
        infer_s = time.perf_counter() - dispatch_pc
        if self._metrics is not None:
            self._metrics.counter("serve.batches").inc()
            self._metrics.histogram("serve.batch_size").observe(len(batch))
            self._metrics.histogram("serve.infer_s").observe(infer_s)
        for item, result in zip(batch, results):
            if item.telemetry is not None:
                item.telemetry.infer_s = infer_s
                item.telemetry.batch_size = len(batch)
                item.telemetry.worker = getattr(result, "worker", None)
                item.telemetry.model_version = getattr(result, "model_version", None)
            if not item.future.done():
                item.future.set_result(result)

    def _record_queue_wait(self, batch: list, dispatch_pc: float) -> None:
        for item in batch:
            if item.telemetry is not None:
                item.telemetry.queue_wait_s = dispatch_pc - item.ticket.enqueued_pc
        if self._metrics is not None:
            hist = self._metrics.histogram("serve.queue_wait_s")
            for item in batch:
                hist.observe(dispatch_pc - item.ticket.enqueued_pc)
        if self._tracer.enabled:
            # queue_wait starts before any span context could open, so
            # the spans are constructed explicitly on the shared timeline
            thread = threading.current_thread()
            self._tracer.extend(
                [
                    Span(
                        name="queue_wait",
                        cat="serve",
                        start_us=(item.ticket.enqueued_pc - self._tracer.origin) * 1e6,
                        dur_us=(dispatch_pc - item.ticket.enqueued_pc) * 1e6,
                        thread_id=thread.ident or 0,
                        thread_name=thread.name,
                        args={} if item.trace is None else {"trace": item.trace},
                    )
                    for item in batch
                ]
            )

    def _record_form(self, batch: list, form_start: float) -> None:
        end = time.perf_counter()
        for item in batch:
            if item.telemetry is not None:
                item.telemetry.batch_form_s = end - form_start
        if self._metrics is not None:
            self._metrics.histogram("serve.batch_form_s").observe(end - form_start)
            self._metrics.gauge("serve.queue_depth").set(self._queue.qsize())
        if self._tracer.enabled:
            thread = threading.current_thread()
            self._tracer.extend(
                [
                    Span(
                        name="batch_form",
                        cat="serve",
                        start_us=(form_start - self._tracer.origin) * 1e6,
                        dur_us=(end - form_start) * 1e6,
                        thread_id=thread.ident or 0,
                        thread_name=thread.name,
                        args={"batch": len(batch)},
                    )
                ]
            )
