"""The detection service: asyncio HTTP front end over the engine.

:class:`DetectionServer` owns the whole serving stack — one
:class:`~repro.detect.pipeline.FaceDetectionPipeline`, one
:class:`~repro.detect.engine.DetectionEngine`, one
:class:`~repro.serve.batcher.MicroBatcher`, one
:class:`~repro.serve.admission.AdmissionController` — and speaks the
protocol from :mod:`repro.serve.protocol` on a plain TCP listener.

Request lifecycle for ``POST /v1/detect`` (each stage is a span on the
shared tracer, so one Chrome trace shows network-to-network latency
next to the simulated kernel schedule):

    read request -> admit (or 429) -> decode frame -> queue_wait
    -> batch_form -> infer (engine batch) -> serialize -> write

Lifecycle endpoints:

* ``/healthz`` — liveness: 200 from the instant the listener binds;
* ``/readyz`` — readiness: 503 until warmup (one real frame through the
  engine, so first-request latency is never paying pool/workspace
  construction) and 503 again once a drain starts;
* ``/metrics`` — the raw metrics-registry snapshot as JSON;
* ``/stats`` — the full observability snapshot plus the serving block
  (admission counters, batcher config, lifecycle state).

Shutdown is a graceful drain: stop accepting, finish queued requests,
then tear down the engine.  A SIGTERM/SIGINT triggers the same path.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.errors import (
    BadRequestError,
    ConfigurationError,
    RequestSheddedError,
    WorkerCrashError,
)
from repro.obs.context import TraceContext
from repro.obs.flight import FlightRecorder
from repro.obs.log import FORMATS as LOG_FORMATS
from repro.obs.log import StructuredLogger
from repro.obs.metrics import MetricsRegistry
from repro.obs.prom import PROM_CONTENT_TYPE, render_prometheus
from repro.obs.report import build_snapshot
from repro.obs.tracer import Tracer
from repro.detect.swap import EngineSlot
from repro.serve.admission import AdmissionConfig, AdmissionController
from repro.serve.batcher import MicroBatcher, RequestTelemetry
from repro.serve.models import ModelManager
from repro.serve.protocol import (
    TRACE_ID_HEADER,
    decode_frame,
    detections_payload,
    encode_response,
    json_body,
    read_request,
)

__all__ = ["ServerConfig", "DetectionServer", "TRACE_ID_HEADER"]

#: flight-dump filename used when none is configured (signal-triggered
#: dumps under the CLI; never written by in-test servers, which leave
#: ``flight_path`` unset)
DEFAULT_FLIGHT_PATH = "FLIGHT_serve.json"

#: side length of the square warmup frame run through each engine
_WARMUP_SIDE = 96


@dataclass(frozen=True)
class ServerConfig:
    """Everything ``repro serve`` can tune."""

    host: str = "127.0.0.1"
    port: int = 8035
    cascade: str = "quick"
    #: zoo model reference (``model`` / ``model@version``) or a cascade
    #: JSON path; overrides ``cascade`` when set.  SIGHUP re-resolves it
    #: (aliases like ``quick`` mean ``quick@latest``) and hot-swaps when
    #: the target moved; ``POST /v1/models/swap`` swaps explicitly.
    model: str | None = None
    backend: str | None = None
    #: compute device kind (``auto`` | ``cuda`` | ``mps`` | ``cpu``);
    #: ``None`` keeps the backend's own device resolution
    device: str | None = None
    #: fast-path policy (``off`` | ``exact`` | ``fast``); ``None`` ->
    #: ``REPRO_FASTPATH`` or off.  Serving frames come from unrelated
    #: clients, so the engine runs with temporal reuse disabled either
    #: way — only the stateless proposal screen applies under ``fast``.
    fastpath: str | None = None
    workers: int = 1
    sharding: str = "threads"
    max_batch: int = 4
    max_delay_s: float = 0.005
    #: fuse each micro-batch into one engine device batch (same-shaped
    #: frames share fused kernels and one simulated schedule) instead of
    #: one ``submit`` per frame
    device_batch: bool = False
    max_body_bytes: int = 8 * 1024 * 1024
    admission: AdmissionConfig = AdmissionConfig()
    trace: bool = False
    #: structured-log format (``json`` | ``text``); level comes from
    #: ``log_level`` or the ``REPRO_LOG`` environment variable
    log_format: str = "text"
    log_level: str | None = None
    #: flight-recorder ring size (last N request + lifecycle events)
    flight_capacity: int = 256
    #: where crash/SIGUSR2 flight dumps are written; ``None`` disables
    #: automatic file dumps (``GET /debug/flight`` always works)
    flight_path: str | None = None

    def validate(self) -> None:
        if self.workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {self.workers}")
        if self.max_body_bytes < 1024:
            raise ConfigurationError(
                f"max_body_bytes must be >= 1024, got {self.max_body_bytes}"
            )
        if self.log_format not in LOG_FORMATS:
            raise ConfigurationError(
                f"unknown log format {self.log_format!r}; "
                f"choose from {list(LOG_FORMATS)}"
            )
        if self.flight_capacity < 1:
            raise ConfigurationError(
                f"flight_capacity must be >= 1, got {self.flight_capacity}"
            )
        self.admission.validate()


def _load_model(
    ref: str,
    backend: str | None,
    tracer: Tracer,
    fastpath: str | None = None,
    device: str | None = None,
):
    """Resolve a model reference into ``(pipeline, model info)``.

    Accepts built-in recipe names (``quick`` / ``paper`` / ``opencv``,
    trained through the zoo on first use), zoo references
    (``model@version``), and cascade JSON paths.
    """
    from repro.detect.pipeline import FaceDetectionPipeline, PipelineConfig
    from repro.zoo import resolve_model

    cascade, manifest = resolve_model(ref)
    if manifest is not None:
        info = {
            "ref": ref,
            "model": manifest.model,
            "version": manifest.version,
            "version_tag": f"{manifest.model}@{manifest.version}",
            "source": manifest.source,
            "content_digest": manifest.content_digest,
        }
    else:
        info = {
            "ref": ref,
            "model": cascade.name,
            "version": "file",
            "version_tag": f"{cascade.name}@file",
            "source": "file",
            "content_digest": None,
        }
    pipeline = FaceDetectionPipeline(
        cascade,
        config=PipelineConfig(backend=backend, device=device, fastpath=fastpath),
        tracer=tracer,
    )
    return pipeline, info


def _build_pipeline(
    cascade: str,
    backend: str | None,
    tracer: Tracer,
    fastpath: str | None = None,
    device: str | None = None,
):
    return _load_model(
        cascade, backend, tracer, fastpath=fastpath, device=device
    )[0]


class DetectionServer:
    """One serving instance: listener + admission + batcher + engine."""

    def __init__(
        self, config: ServerConfig | None = None, *, log_stream=None
    ) -> None:
        self._config = config or ServerConfig()
        self._config.validate()
        self._tracer = Tracer(enabled=self._config.trace)
        self._metrics = MetricsRegistry()
        # ``log_stream`` overrides stderr (benchmarks and tests capture it)
        self._log = StructuredLogger(
            self._config.log_format,
            level=self._config.log_level,
            stream=log_stream,
        )
        self._flight = FlightRecorder(self._config.flight_capacity)
        self._admission = AdmissionController(
            self._config.admission, metrics=self._metrics
        )
        self._manager: ModelManager | None = None
        self._slot: EngineSlot | None = None
        self._batcher: MicroBatcher | None = None
        # ONE infer thread: batches serialise through it in order, and
        # each dispatch is a single executor hop for the whole batch
        self._infer_pool: ThreadPoolExecutor | None = None
        self._server: asyncio.AbstractServer | None = None
        self._ready = asyncio.Event()
        self._draining = False
        self._stopped = asyncio.Event()
        self._connections: set[asyncio.StreamWriter] = set()
        self._busy = 0
        self._idle_waiter: asyncio.Event = asyncio.Event()
        self._started_pc: float | None = None

    # ------------------------------------------------------------------
    # lifecycle

    @property
    def config(self) -> ServerConfig:
        return self._config

    @property
    def _engine(self):
        """The live engine — always read through the hot-swap slot."""
        return self._slot.engine if self._slot is not None else None

    @property
    def _pipeline(self):
        engine = self._engine
        return engine.pipeline if engine is not None else None

    @property
    def model_version(self) -> str | None:
        """The ``model@version`` tag currently serving."""
        return self._slot.model_version if self._slot is not None else None

    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    @property
    def tracer(self) -> Tracer:
        return self._tracer

    @property
    def log(self) -> StructuredLogger:
        return self._log

    @property
    def flight(self) -> FlightRecorder:
        return self._flight

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` in tests)."""
        if self._server is None:
            raise ConfigurationError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def ready(self) -> bool:
        return self._ready.is_set() and not self._draining

    async def start(self) -> None:
        """Bind the listener and warm up; returns once ready."""
        if self._server is not None:
            raise ConfigurationError("server is already started")

        cfg = self._config
        self._infer_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-infer"
        )
        self._manager = ModelManager(
            build_pipeline=lambda ref: _load_model(
                ref,
                cfg.backend,
                self._tracer,
                fastpath=cfg.fastpath,
                device=cfg.device,
            ),
            build_engine=self._build_engine,
            warm=self._warm_engine,
            flip_executor=self._infer_pool,
            tracer=self._tracer,
            metrics=self._metrics,
            lifecycle=self._lifecycle,
        )
        self._slot = self._manager.boot(cfg.model or cfg.cascade)
        self._batcher = MicroBatcher(
            self._infer,
            max_batch=cfg.max_batch,
            max_delay_s=cfg.max_delay_s,
            executor=self._infer_pool,
            tracer=self._tracer,
            metrics=self._metrics,
        )
        self._batcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection, cfg.host, cfg.port
        )
        self._started_pc = time.perf_counter()
        self._lifecycle(
            "listening",
            host=cfg.host,
            port=self.port,
            workers=cfg.workers,
            sharding=self._engine.sharding.value,
        )
        # liveness is now green; readiness flips after the warmup frame
        warmup_start = time.perf_counter()
        await asyncio.get_running_loop().run_in_executor(
            self._infer_pool, self._warmup
        )
        self._ready.set()
        self._lifecycle(
            "warmup", warmup_s=round(time.perf_counter() - warmup_start, 6)
        )

    def _build_engine(self, pipeline):
        """One engine over ``pipeline`` with the server's tuning.

        Used at boot and for every hot-swap, so a swapped-in model runs
        under exactly the configuration the boot model did.
        """
        from repro.detect.engine import DetectionEngine

        cfg = self._config
        return DetectionEngine(
            pipeline,
            workers=cfg.workers,
            sharding=cfg.sharding,
            tracer=self._tracer,
            metrics=self._metrics,
            # requests from different clients must never delta against
            # each other: temporal reuse off, proposal screen still on
            fastpath_stream=None,
            # the micro-batcher's coalesced window becomes one fused
            # device batch, capped at the batcher's own max_batch
            batch_across_frames=cfg.device_batch,
            device_batch=cfg.max_batch if cfg.device_batch else None,
        )

    def _infer(self, lumas: list, traces: list | None = None) -> list:
        """Run one micro-batch through the engine.

        The batcher's coalesced window goes down as one
        :meth:`~repro.detect.engine.DetectionEngine.submit_batch` call
        on whatever engine the hot-swap slot currently holds — the slot
        is read once per batch, and swaps execute on this same
        single-thread executor, so a batch can never straddle two
        engines.  With ``device_batch`` on, consecutive same-shaped
        requests fuse into one device batch (shared kernels, one
        simulated schedule); with it off, the engine degrades to one
        ``submit`` per frame.  Either way each request's trace id
        reaches its worker — thread or process — so worker-side
        ``frame`` spans and the result's ``worker`` attribution stay
        request-scoped.  Results come back in batch order, stamped with
        the serving model version; any worker failure fails the whole
        batch, exactly as the streaming path did.
        """
        return self._slot.infer(lumas, traces)

    def _warm_engine(self, engine) -> None:
        """Workspace plans + one synthetic frame through ``engine``."""
        frame = np.zeros((_WARMUP_SIDE, _WARMUP_SIDE), dtype=np.float32)
        list(engine.process_frames([frame]))
        self._metrics.counter("serve.warmup_frames").inc()

    def _warmup(self) -> None:
        self._warm_engine(self._engine)

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT drain; SIGUSR2 dumps flight; SIGHUP reloads model.

        SIGHUP re-resolves the configured model reference (an alias like
        ``quick`` means ``quick@latest``) and hot-swaps when the target
        moved — the symlink-flip deployment idiom, with no restart.
        """
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                sig, lambda: asyncio.ensure_future(self.drain())
            )
        loop.add_signal_handler(sig=signal.SIGUSR2, callback=self.dump_flight)
        loop.add_signal_handler(
            signal.SIGHUP,
            lambda: asyncio.ensure_future(self.reload_model()),
        )

    async def reload_model(self) -> dict | None:
        """Re-resolve ``--model`` and swap if it points elsewhere now."""
        if self._manager is None:
            return None
        return await self._manager.reload()

    def dump_flight(self, reason: str = "signal") -> str | None:
        """Write the flight ring to the configured dump path; returns it."""
        path = self._config.flight_path or DEFAULT_FLIGHT_PATH
        try:
            self._flight.dump(path, reason=reason)
        except OSError as exc:  # pragma: no cover - disk trouble
            self._log.event(
                "lifecycle", level="error", phase="flight_dump_failed",
                error=str(exc), path=path,
            )
            return None
        self._log.event("lifecycle", phase="flight_dump", path=path, reason=reason)
        return path

    async def wait_closed(self) -> None:
        """Block until a drain completes."""
        await self._stopped.wait()

    async def drain(self) -> None:
        """Graceful shutdown: finish admitted work, then tear down.

        Kubernetes-style ordering: readiness flips to 503 *first* (so
        ``/readyz`` pollers and load balancers observe the drain while
        in-flight requests finish), new ``/v1/detect`` requests are
        refused with 503 + ``Retry-After``, and only once the last busy
        request completes does the listener close and the engine tear
        down.
        """
        if self._draining:
            await self._stopped.wait()
            return
        self._draining = True  # /readyz answers 503 from here on
        self._lifecycle("drain_begin", busy=self._busy)
        while self._busy > 0:
            self._idle_waiter.clear()
            await self._idle_waiter.wait()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._connections):
            writer.close()
        if self._batcher is not None:
            await self._batcher.aclose()
        if self._engine is not None:
            self._engine.drain()
            self._engine.close()
        if self._manager is not None:
            self._manager.close()
        if self._infer_pool is not None:
            self._infer_pool.shutdown(wait=True)
        self._lifecycle(
            "stopped",
            requests=int(self._metrics.counter("serve.requests").value),
        )
        self._stopped.set()

    # ------------------------------------------------------------------
    # connection handling

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body_bytes=self._config.max_body_bytes
                    )
                except BadRequestError as exc:
                    self._count_status(exc.status)
                    writer.write(
                        encode_response(
                            exc.status,
                            json_body({"error": str(exc)}),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                # busy covers the response write too: a drain must not
                # close the connection between compute and flush
                self._busy += 1
                try:
                    status, payload = await self._respond(request)
                    keep_alive = request.keep_alive and not self._draining
                    writer.write(
                        encode_response(status, payload[0], keep_alive=keep_alive,
                                        extra_headers=payload[1])
                    )
                    await writer.drain()
                finally:
                    self._busy -= 1
                    if self._busy == 0:
                        self._idle_waiter.set()
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()

    async def _respond(self, request) -> tuple[int, tuple[bytes, dict | None]]:
        """Route one request; returns ``(status, (body, extra_headers))``."""
        try:
            return await self._route(request)
        except BadRequestError as exc:
            self._count_status(exc.status)
            return exc.status, (json_body({"error": str(exc)}), None)
        except RequestSheddedError as exc:
            self._count_status(429)
            return 429, (
                json_body(
                    {
                        "error": str(exc),
                        "reason": exc.reason,
                        "retry_after_s": exc.retry_after_s,
                    }
                ),
                {"Retry-After": str(max(1, math.ceil(exc.retry_after_s)))},
            )
        except Exception as exc:  # pragma: no cover - defensive
            self._count_status(500)
            return 500, (
                json_body({"error": f"{type(exc).__name__}: {exc}"}),
                None,
            )

    async def _route(self, request) -> tuple[int, tuple[bytes, dict | None]]:
        path = request.path
        if path == "/v1/detect":
            if request.method != "POST":
                return 405, (
                    json_body({"error": "use POST"}),
                    {"Allow": "POST"},
                )
            return await self._detect(request)
        if path == "/v1/models/swap":
            if request.method != "POST":
                return 405, (
                    json_body({"error": "use POST"}),
                    {"Allow": "POST"},
                )
            return await self._swap(request)
        if path == "/v1/models":
            if request.method in ("GET", "HEAD"):
                return 200, (json_body(self._models()), None)
        if request.method not in ("GET", "HEAD"):
            return 405, (json_body({"error": "use GET"}), {"Allow": "GET, HEAD"})
        if path == "/healthz":
            return 200, (json_body({"status": "ok"}), None)
        if path == "/readyz":
            if self.ready:
                return 200, (json_body({"status": "ready"}), None)
            state = "draining" if self._draining else "warming"
            return 503, (
                json_body({"status": state}),
                {"Retry-After": "1"},
            )
        if path == "/metrics":
            return self._metrics_response(request)
        if path == "/stats":
            return 200, (json_body(self._stats()), None)
        if path == "/debug/flight":
            return 200, (json_body(self._flight.snapshot()), None)
        return 404, (json_body({"error": f"no route {path!r}"}), None)

    def _metrics_response(self, request) -> tuple[int, tuple[bytes, dict | None]]:
        """``/metrics``, content-negotiated between JSON and Prometheus.

        ``?format=prom`` (or ``json``) wins; otherwise an ``Accept``
        header naming ``text/plain`` selects the Prometheus 0.0.4 text
        exposition.  Both render from the same snapshot call, so the two
        formats can never disagree within one scrape.
        """
        fmt = request.query.get("format")
        if fmt not in (None, "json", "prom"):
            raise BadRequestError(
                f"unknown metrics format {fmt!r}; use 'json' or 'prom'"
            )
        if fmt is None and "text/plain" in request.headers.get("accept", ""):
            fmt = "prom"
        snapshot = self._metrics.snapshot()
        if fmt == "prom":
            body = render_prometheus(snapshot).encode("utf-8")
            return 200, (body, {"Content-Type": PROM_CONTENT_TYPE})
        return 200, (json_body(snapshot), None)

    async def _detect(self, request) -> tuple[int, tuple[bytes, dict | None]]:
        """``POST /v1/detect`` — the single request choke point.

        Every outcome (200, shed, bad request, crash) flows through
        here, so the trace-id header, the request log event, and the
        flight-recorder entry are each emitted exactly once per request.
        """
        ctx = TraceContext.from_headers(request.headers)
        telemetry = RequestTelemetry(trace=ctx.trace_id)
        headers: dict = {TRACE_ID_HEADER: ctx.trace_id}
        start_pc = time.perf_counter()
        status = 500
        shed_reason: str | None = None
        error: str | None = None
        try:
            if not self.ready:
                state = "draining" if self._draining else "warming"
                shed_reason = state
                error = f"server is {state}"
                status = 503
                headers["Retry-After"] = "1"
                return 503, (
                    json_body({"error": error, "trace_id": ctx.trace_id}),
                    headers,
                )
            self._count_status(None)  # request seen
            ticket = self._admission.try_admit(
                self._batcher.queue_depth, trace=ctx.trace_id
            )
            try:
                luma = decode_frame(request)
                result = await self._batcher.submit(luma, ticket, telemetry)
                with self._tracer.span("serialize", cat="serve", trace=ctx.trace_id):
                    serialize_start = time.perf_counter()
                    payload = detections_payload(result)
                    telemetry.serialize_s = time.perf_counter() - serialize_start
                payload["trace_id"] = ctx.trace_id
                payload["timing"] = telemetry.timing()
                payload["model_version"] = result.model_version
                body = json_body(payload)
            finally:
                self._admission.release()
            status = 200
            self._count_status(200)
            return 200, (body, headers)
        except BadRequestError as exc:
            status = exc.status
            error = str(exc)
            self._count_status(status)
            return status, (
                json_body({"error": error, "trace_id": ctx.trace_id}),
                headers,
            )
        except RequestSheddedError as exc:
            # DeadlineExpiredError subclasses RequestSheddedError, so
            # queue-deadline expiry lands here too (reason "deadline"),
            # counted here once; admission counted the other reasons
            # when it refused them
            if exc.reason == "deadline":
                self._admission.record_deadline_shed()
            status = 429
            shed_reason = exc.reason
            error = str(exc)
            self._count_status(429)
            headers["Retry-After"] = str(max(1, math.ceil(exc.retry_after_s)))
            return 429, (
                json_body(
                    {
                        "error": error,
                        "reason": exc.reason,
                        "retry_after_s": exc.retry_after_s,
                        "trace_id": ctx.trace_id,
                    }
                ),
                headers,
            )
        except WorkerCrashError as exc:
            status = 500
            error = f"{type(exc).__name__}: {exc}"
            self._count_status(500)
            self._on_worker_crash(ctx, error)
            return 500, (
                json_body({"error": error, "trace_id": ctx.trace_id}),
                headers,
            )
        except Exception as exc:
            status = 500
            error = f"{type(exc).__name__}: {exc}"
            self._count_status(500)
            return 500, (
                json_body({"error": error, "trace_id": ctx.trace_id}),
                headers,
            )
        finally:
            latency_s = time.perf_counter() - start_pc
            self._log_request(ctx, status, latency_s, telemetry, shed_reason, error)

    async def _swap(self, request) -> tuple[int, tuple[bytes, dict | None]]:
        """``POST /v1/models/swap`` — zero-downtime model hot-swap.

        The reference comes from the JSON body (``{"model": "..."}``) or
        the ``model`` query parameter.  409 while another swap is in
        flight; zoo resolution failures map to a 400 and leave the
        serving model untouched.  ``/readyz`` stays green throughout —
        the old engine serves every batch until the flip lands.
        """
        from repro.errors import ZooError

        ref = request.query.get("model")
        if request.body:
            try:
                body = json.loads(request.body)
            except json.JSONDecodeError as exc:
                raise BadRequestError(f"swap body is not valid JSON: {exc}") from exc
            if not isinstance(body, dict):
                raise BadRequestError("swap body must be a JSON object")
            ref = body.get("model", ref)
        if not ref or not isinstance(ref, str):
            raise BadRequestError(
                "specify the target model: {\"model\": \"<ref>\"} or ?model=<ref>"
            )
        try:
            summary = await self._manager.swap(ref)
        except ZooError as exc:
            raise BadRequestError(str(exc)) from exc
        return 200, (
            json_body({"swapped": True, **summary, "model": self._manager.info()}),
            None,
        )

    def _models(self) -> dict:
        """``GET /v1/models`` — what's serving and what could serve."""
        from repro.zoo import RECIPES, default_store

        store = default_store()
        available: dict = {
            name: {"versions": [], "latest": None, "recipe": True}
            for name in sorted(RECIPES)
        }
        for model in store.models():
            entry = available.setdefault(
                model, {"versions": [], "latest": None, "recipe": False}
            )
            entry["versions"] = store.versions(model)
            entry["latest"] = store.latest(model)
        return {
            "current": self._manager.info() if self._manager else None,
            "available": available,
        }

    # ------------------------------------------------------------------
    # introspection

    def _count_status(self, status: int | None) -> None:
        if status is None:
            self._metrics.counter("serve.requests").inc()
        else:
            self._metrics.counter(f"serve.http.{status}").inc()

    def _lifecycle(self, phase: str, *, level: str = "info", **fields) -> None:
        """One lifecycle transition: structured log + flight-ring entry."""
        self._log.event("lifecycle", level=level, phase=phase, **fields)
        self._flight.record("lifecycle", phase=phase, **fields)

    def _log_request(
        self,
        ctx: TraceContext,
        status: int,
        latency_s: float,
        telemetry: RequestTelemetry,
        shed_reason: str | None,
        error: str | None,
    ) -> None:
        """Exactly one ``request`` event per ``/v1/detect`` request.

        The same field set lands on the structured log and in the flight
        ring, so the two can be cross-checked by trace id.
        """
        fields: dict = {
            "trace_id": ctx.trace_id,
            "status": status,
            "latency_s": round(latency_s, 6),
        }
        if telemetry.batch_size is not None:
            fields["batch_size"] = telemetry.batch_size
        if telemetry.worker is not None:
            fields["worker"] = telemetry.worker
        if telemetry.model_version is not None:
            fields["model_version"] = telemetry.model_version
        if telemetry.queue_wait_s is not None:
            fields["queue_wait_s"] = round(telemetry.queue_wait_s, 6)
        if shed_reason is not None:
            fields["shed_reason"] = shed_reason
        if error is not None:
            fields["error"] = error
        level = "info" if status < 400 else ("warning" if status < 500 else "error")
        self._log.event("request", level=level, **fields)
        self._flight.record("request", **fields)

    def _on_worker_crash(self, ctx: TraceContext, error: str) -> None:
        """A worker died under a request: record it, dump the ring."""
        self._lifecycle(
            "worker_crash", level="error", trace_id=ctx.trace_id, error=error
        )
        if self._config.flight_path is not None:
            self.dump_flight(reason="worker_crash")

    def _stats(self) -> dict:
        backend = self._pipeline.backend.name if self._pipeline else None
        snap = build_snapshot(
            self._metrics,
            self._tracer,
            backend=backend,
            device=self._pipeline.compute_device if self._pipeline else None,
            probe=self._pipeline.probe_report if self._pipeline else None,
            model=self._manager.info() if self._manager is not None else None,
        )
        snap["serve"] = {
            "model": self._manager.info() if self._manager is not None else None,
            "state": (
                "draining"
                if self._draining
                else ("ready" if self._ready.is_set() else "warming")
            ),
            "uptime_s": (
                time.perf_counter() - self._started_pc
                if self._started_pc is not None
                else 0.0
            ),
            "admission": self._admission.to_dict(),
            "batcher": {
                "max_batch": self._config.max_batch,
                "max_delay_s": self._config.max_delay_s,
                "queue_depth": self._batcher.queue_depth if self._batcher else 0,
            },
            "engine": {
                "workers": self._engine.workers if self._engine else 0,
                "sharding": self._engine.sharding.value if self._engine else None,
                "fastpath": (
                    self._pipeline.fastpath.policy.value if self._pipeline else None
                ),
                "device_batch": (
                    self._engine.batch_across_frames if self._engine else False
                ),
                "device_batch_size": (
                    self._engine.device_batch
                    if self._engine and self._engine.batch_across_frames
                    else None
                ),
            },
            "observability": {
                "log": {
                    "format": self._log.fmt,
                    "emitted": self._log.emitted,
                    "suppressed": self._log.suppressed,
                },
                "flight": {
                    "capacity": self._flight.capacity,
                    "recorded": self._flight.recorded,
                    "dropped": self._flight.dropped,
                },
            },
        }
        return snap


async def run_server(config: ServerConfig, *, ready_line: bool = True) -> None:
    """``repro serve``: start, announce, serve until SIGTERM/SIGINT."""
    server = DetectionServer(config)
    await server.start()
    server.install_signal_handlers()
    if ready_line:
        cfg = server.config
        print(
            f"repro serve: listening on http://{cfg.host}:{server.port} "
            f"(cascade={cfg.cascade}, workers={cfg.workers}, "
            f"max_batch={cfg.max_batch}, max_delay={cfg.max_delay_s * 1e3:.1f}ms)",
            flush=True,
        )
    await server.wait_closed()
