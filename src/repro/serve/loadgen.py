"""Async load generation against the detection service: ``repro loadtest``.

Two drive modes, because they answer different questions:

* **closed loop** — ``concurrency`` workers, each sending its next
  request the moment the previous answer lands.  Measures the service's
  sustainable throughput at a fixed number of outstanding requests.
* **open loop** — requests launched on a fixed-rate schedule regardless
  of completions, the shape real traffic has.  Latency is measured from
  each request's *scheduled* start, so queueing delay caused by a slow
  server counts against it (no coordinated omission).

The client speaks the same stdlib HTTP/1.1 subset as the server (one
keep-alive connection per worker) and pre-encodes its frame payloads,
so measured latency is the service, not the generator.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, ServeError
from repro.serve.protocol import TRACE_ID_HEADER
from repro.utils.provenance import provenance
from repro.video.pnm import encode_pgm

__all__ = [
    "LoadTestResult",
    "build_payloads",
    "run_loadtest",
    "serving_artifact",
    "BENCH_SERVING_SCHEMA_VERSION",
]

#: ``BENCH_serving-loadtest.json`` schema version
BENCH_SERVING_SCHEMA_VERSION = 1

_CLIENT_MAX_BODY = 64 * 1024 * 1024


@dataclass
class LoadTestResult:
    """Everything one load-test run measured."""

    mode: str
    concurrency: int
    rate_rps: float | None
    requests: int
    wall_s: float
    status_counts: dict[str, int]
    latencies_s: list[float] = field(repr=False)
    errors: int = 0
    #: per-OK-request trace ids, parallel to ``latencies_s`` (the
    #: server's ``x-repro-trace-id`` response header; ``None`` when the
    #: server predates tracing)
    trace_ids: list[str | None] = field(default_factory=list, repr=False)

    @property
    def ok(self) -> int:
        return self.status_counts.get("200", 0)

    @property
    def shed(self) -> int:
        return self.status_counts.get("429", 0)

    @property
    def rps(self) -> float:
        """Completed-OK requests per second of wall time."""
        return self.ok / self.wall_s if self.wall_s > 0 else 0.0

    def latency_summary(self) -> dict:
        """Nearest-rank percentiles over OK-request latencies."""
        lat = sorted(self.latencies_s)
        if not lat:
            return {"count": 0}

        def pct(p: float) -> float:
            # nearest-rank, matching obs.metrics.Histogram.percentile
            rank = max(1, math.ceil(p / 100.0 * len(lat)))
            return lat[rank - 1]

        return {
            "count": len(lat),
            "mean_s": sum(lat) / len(lat),
            "p50_s": pct(50),
            "p95_s": pct(95),
            "p99_s": pct(99),
            "max_s": lat[-1],
        }

    def slowest(self, k: int = 5) -> list[dict]:
        """The ``k`` slowest OK requests with their trace ids.

        The whole point of the trace header: a bad tail latency here
        names the exact server-side log line, flight-ring entry, and
        Chrome-trace spans to look at.
        """
        traces = list(self.trace_ids)
        traces += [None] * (len(self.latencies_s) - len(traces))
        paired = sorted(
            zip(self.latencies_s, traces), key=lambda pair: pair[0], reverse=True
        )
        return [
            {"latency_s": latency_s, "trace_id": trace_id}
            for latency_s, trace_id in paired[:k]
        ]

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "concurrency": self.concurrency,
            "rate_rps": self.rate_rps,
            "requests": self.requests,
            "wall_s": self.wall_s,
            "rps": self.rps,
            "status_counts": dict(sorted(self.status_counts.items())),
            "shed": self.shed,
            "errors": self.errors,
            "latency": self.latency_summary(),
            "slowest": self.slowest(),
        }


def serving_artifact(
    result: LoadTestResult,
    *,
    width: int,
    height: int,
    frames: int,
    trailer: str | None,
    server_stats: dict | None = None,
) -> dict:
    """The ``repro loadtest`` artifact: one run against an external server.

    Tagged ``serving-loadtest``.  One run has no unbatched counterpart,
    so ``speedup`` and ``identical_responses`` are ``null``, and
    ``repro bench check`` gates on what is knowable here: requests
    succeeded, zero transport errors.
    """
    lat = result.latency_summary()
    engine = (server_stats or {}).get("engine", {})
    return {
        "experiment": "serving-loadtest",
        "schema_version": BENCH_SERVING_SCHEMA_VERSION,
        "provenance": provenance(mode=engine.get("sharding")),
        "workload": {
            "frame_width": width,
            "frame_height": height,
            "payload_frames": frames,
            "trailer": trailer,
            "requests": result.requests,
            "concurrency": result.concurrency,
        },
        "runs": {
            "loadtest": {
                **result.to_dict(),
                **({"server": server_stats} if server_stats else {}),
            }
        },
        "fps": result.rps,
        "latency": {
            "p50_s": lat.get("p50_s", 0.0),
            "p95_s": lat.get("p95_s", 0.0),
        },
        "speedup": None,
        "identical_responses": None,
    }


def build_payloads(
    *,
    width: int = 96,
    height: int = 96,
    frames: int = 8,
    faces: int = 1,
    seed: int = 0,
    trailer: str | None = None,
    references: bool = False,
) -> list[tuple[bytes, str]]:
    """Pre-encode the rotating pool of ``(body, content_type)`` payloads.

    Raw mode ships binary PGM pixels; reference mode ships small JSON
    frame references the server renders locally (same deterministic
    frames, a fraction of the bytes on the wire).
    """
    if frames < 1:
        raise ConfigurationError(f"frames must be >= 1, got {frames}")
    payloads: list[tuple[bytes, str]] = []
    if references:
        for i in range(frames):
            spec: dict = {
                "width": width,
                "height": height,
                "frame": i,
                "seed": seed,
            }
            if trailer is not None:
                spec.update(source="trailer", trailer=trailer)
            else:
                spec.update(source="synthetic", faces=faces)
            payloads.append(
                (json.dumps(spec).encode("ascii"), "application/json")
            )
        return payloads
    if trailer is not None:
        from repro.video.trailer import trailer_frames

        for frame, _ in trailer_frames(trailer, width, height, frames, seed=seed):
            payloads.append((encode_pgm(frame), "application/octet-stream"))
        return payloads
    from repro.video.stream import synthetic_stream

    for packet in synthetic_stream(width, height, frames, faces=faces, seed=seed):
        payloads.append((encode_pgm(packet.luma), "application/octet-stream"))
    return payloads


class _Connection:
    """One keep-alive client connection."""

    def __init__(self, host: str, port: int) -> None:
        self._host = host
        self._port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        #: response headers of the most recent completed round trip
        #: (lower-cased names) — how callers read ``x-repro-trace-id``
        self.last_headers: dict[str, str] = {}

    async def request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        content_type: str = "",
        headers: dict[str, str] | None = None,
    ) -> tuple[int, bytes]:
        """Send one request, reconnecting once on a dropped connection."""
        for attempt in (0, 1):
            if self._writer is None:
                self._reader, self._writer = await asyncio.open_connection(
                    self._host, self._port
                )
            try:
                return await self._roundtrip(method, path, body, content_type, headers)
            except (ConnectionError, asyncio.IncompleteReadError, ServeError):
                self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")

    async def _roundtrip(
        self,
        method: str,
        path: str,
        body: bytes,
        content_type: str,
        extra_headers: dict[str, str] | None = None,
    ) -> tuple[int, bytes]:
        head = [f"{method} {path} HTTP/1.1", f"Host: {self._host}:{self._port}"]
        for name, value in (extra_headers or {}).items():
            head.append(f"{name}: {value}")
        if body:
            head.append(f"Content-Type: {content_type}")
            head.append(f"Content-Length: {len(body)}")
        self._writer.write(("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body)
        await self._writer.drain()

        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionResetError("server closed the connection")
        parts = status_line.decode("ascii", "replace").split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ServeError(f"malformed status line {status_line!r}")
        status = int(parts[1])
        headers: dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise ConnectionResetError("server closed mid-headers")
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        if length > _CLIENT_MAX_BODY:
            raise ServeError(f"response body of {length} bytes is implausible")
        payload = await self._reader.readexactly(length) if length else b""
        self.last_headers = headers
        if headers.get("connection", "").lower() == "close":
            self.close()
        return status, payload

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
        self._reader = self._writer = None


async def _wait_ready(host: str, port: int, timeout_s: float) -> None:
    """Poll ``/readyz`` until the server reports ready."""
    conn = _Connection(host, port)
    deadline = time.perf_counter() + timeout_s
    while True:
        try:
            status, _ = await conn.request("GET", "/readyz")
            if status == 200:
                conn.close()
                return
        except (ConnectionError, OSError, ServeError):
            pass
        if time.perf_counter() > deadline:
            conn.close()
            raise ServeError(
                f"server at {host}:{port} not ready within {timeout_s:.1f}s"
            )
        await asyncio.sleep(0.05)


async def run_loadtest(
    host: str,
    port: int,
    *,
    requests: int = 64,
    concurrency: int = 8,
    rate_rps: float | None = None,
    payloads: list[tuple[bytes, str]] | None = None,
    ready_timeout_s: float = 30.0,
) -> LoadTestResult:
    """Drive the service and measure; closed loop unless ``rate_rps``.

    ``payloads`` rotate round-robin across requests (default: a small
    synthetic-frame pool from :func:`build_payloads`).
    """
    if requests < 1:
        raise ConfigurationError(f"requests must be >= 1, got {requests}")
    if concurrency < 1:
        raise ConfigurationError(f"concurrency must be >= 1, got {concurrency}")
    if rate_rps is not None and rate_rps <= 0:
        raise ConfigurationError(f"rate_rps must be > 0, got {rate_rps}")
    payloads = payloads or build_payloads()
    await _wait_ready(host, port, ready_timeout_s)

    status_counts: dict[str, int] = {}
    latencies: list[float] = []
    trace_ids: list[str | None] = []
    errors = 0

    def record(status: int, latency_s: float, trace_id: str | None) -> None:
        status_counts[str(status)] = status_counts.get(str(status), 0) + 1
        if status == 200:
            latencies.append(latency_s)
            trace_ids.append(trace_id)

    async def one(conn: _Connection, index: int, scheduled_pc: float) -> None:
        nonlocal errors
        body, content_type = payloads[index % len(payloads)]
        try:
            status, _ = await conn.request("POST", "/v1/detect", body, content_type)
        except (ConnectionError, OSError, ServeError, asyncio.IncompleteReadError):
            errors += 1
            return
        record(
            status,
            time.perf_counter() - scheduled_pc,
            conn.last_headers.get(TRACE_ID_HEADER),
        )

    start = time.perf_counter()
    if rate_rps is None:
        counter = iter(range(requests))

        async def worker() -> None:
            conn = _Connection(host, port)
            try:
                for index in counter:
                    await one(conn, index, time.perf_counter())
            finally:
                conn.close()

        await asyncio.gather(*(worker() for _ in range(concurrency)))
    else:
        # open loop: launch on schedule; latency counts from the
        # *scheduled* instant so server-induced queueing is charged.
        # Each connection is serialised by a lock (HTTP/1.1 has no
        # multiplexing) — a late answer delays the next request on that
        # connection, which then shows up as scheduled-start latency.
        conns = [
            (_Connection(host, port), asyncio.Lock()) for _ in range(concurrency)
        ]
        interval = 1.0 / rate_rps

        async def timed(index: int, scheduled: float) -> None:
            conn, lock = conns[index % concurrency]
            async with lock:
                await one(conn, index, scheduled)

        tasks = []
        for index in range(requests):
            scheduled = start + index * interval
            delay = scheduled - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(timed(index, scheduled)))
        await asyncio.gather(*tasks)
        for conn, _ in conns:
            conn.close()
    wall_s = time.perf_counter() - start

    return LoadTestResult(
        mode="closed" if rate_rps is None else "open",
        concurrency=concurrency,
        rate_rps=rate_rps,
        requests=sum(status_counts.values()) + errors,
        wall_s=wall_s,
        status_counts=status_counts,
        latencies_s=latencies,
        errors=errors,
        trace_ids=trace_ids,
    )
