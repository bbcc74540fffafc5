"""Serving workloads: ``python -m repro serve`` driven over HTTP.

The load generator is this module's own stdlib asyncio client with two
keep-alive connections from one process.  A run is a closed loop for
``CLOSED_SHARE`` of ``seconds`` (each connection sends its next request
when the previous answer arrives) and then an open loop for the rest (a
request falls due every ``1/rate`` seconds whether or not earlier ones
finished, waiting for a free connection if both are busy).  Open-loop
latency runs from the moment a request fell due, so generator and
connection stalls count against the server.

Throughput and server CPU per response are taken per window of
closed-loop responses, latency p50/p90 per window of open-loop requests,
and each is reported as the fast-side quartile over windows
(:func:`common.fast_side`).
"""

from __future__ import annotations

import asyncio
import http.client
import itertools
import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

import trace as tracing
from common import (
    BENCH,
    OUT,
    ROOT,
    WINDOWED,
    latency_quantiles,
    median,
    percentile,
    proc_cpu_s,
    proc_status_kb,
    rate_and_cpu,
    summarise,
    windows,
)
from repro.detect.pipeline import FaceDetectionPipeline, PipelineConfig
from repro.serve.protocol import detections_payload
from repro.video.pnm import parse_pnm
from repro.zoo import load_or_train

#: workload -> (cascade, open-loop rate in requests/s, closed-loop
#: window in responses, open-loop window in requests).  Latency is
#: bimodal: a request alone in the server, or one that shares it with
#: another.  These rates keep the server about a third busy on a 2-core
#: host, so most requests find it idle: p50 sits inside the first mode
#: and p90 inside the second instead of on the gap between them, where
#: a small change in load would move them a long way.  A window is
#: whole passes over the request pool, so every window holds the same
#: mix; windows advance half their length.
WORKLOADS = {
    "serve-small": ("quick", 12.0, 48, 24),
    "serve-mixed": ("paper", 6.0, 20, 20),
}
CONNECTIONS = 2
#: share of ``seconds`` spent in the closed loop; the open loop gets the
#: rest, for more latency samples at its low rates
CLOSED_SHARE = 1 / 3
REQUEST_TIMEOUT_S = 30.0


def server_args(cascade: str) -> list[str]:
    """The pinned server configuration (identical on every commit)."""
    return [
        "serve",
        "--cascade", cascade,
        "--backend", "vectorized",
        "--max-batch", "4",
        "--device-batch",
        "--port", "0",
        "--flight-dump", str(OUT / "FLIGHT_serve.json"),
    ]


def _read_line(proc: subprocess.Popen, timeout: float) -> bytes:
    fd = proc.stdout.fileno()
    deadline = time.monotonic() + timeout
    buf = b""
    while not buf.endswith(b"\n"):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("server did not become ready in time")
        readable, _, _ = select.select([fd], [], [], remaining)
        if readable:
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(f"server exited before it was ready (code {proc.poll()})")
            buf += chunk
    return buf


def _get(port: int, path: str) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Server:
    """One ``repro serve`` process; set-up runs from spawn to the first ``/readyz`` 200."""

    def __init__(self, workload: str, cascade: str, spans_path=None) -> None:
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", *server_args(cascade)]
        else:
            cmd = [sys.executable, str(BENCH / "traced_serve.py"), str(spans_path),
                   *server_args(cascade)]
        self._log = open(OUT / f"serve-{workload}.log", "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=self._log, bufsize=0
        )
        try:
            line = _read_line(self.proc, timeout=120)
            match = re.search(rb"listening on http://[^:]+:(\d+)", line)
            if match is None:
                raise RuntimeError(f"unexpected server banner {line!r}")
            self.port = int(match.group(1))
            status, _ = _get(self.port, "/readyz")
            if status != 200:
                raise RuntimeError(f"/readyz answered {status} after the ready banner")
            self.setup_s = time.perf_counter() - start
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        """SIGTERM (graceful drain) and wait; kill if the drain hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


# ---------------------------------------------------------------------------
# the load generator


@dataclass
class Response:
    index: int  # position in the request pool
    status: int  # 0 for a transport error
    body: bytes
    sent: float
    done: float
    due: float = 0.0
    #: server CPU seconds when the response arrived (closed loop only)
    cpu: float = 0.0


class _Connection:
    def __init__(self, port: int) -> None:
        self._port = port
        self._reader = self._writer = None

    async def open(self) -> "_Connection":
        self._reader, self._writer = await asyncio.open_connection("127.0.0.1", self._port)
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except OSError:
                pass
            self._writer = None

    async def _post(self, body: bytes) -> tuple[int, bytes]:
        head = (
            "POST /v1/detect HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            "Content-Type: application/octet-stream\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self._writer.write(head + body)
        await self._writer.drain()
        status = int((await self._reader.readline()).split()[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self._reader.readexactly(length)

    async def post(self, body: bytes) -> tuple[int, bytes]:
        """``(status, body)``; ``(0, b"")`` and a fresh connection on transport errors."""
        try:
            return await asyncio.wait_for(self._post(body), REQUEST_TIMEOUT_S)
        except (OSError, EOFError, ValueError, IndexError, asyncio.TimeoutError):
            await self.close()
            await self.open()
            return 0, b""


async def closed_loop(port: int, pool: list[bytes], seconds: float, pid: int):
    """Each connection sends its next request as soon as the last one returns.

    Returns ``(start, server CPU seconds at start, responses)``; each
    response also records the server's CPU seconds when it arrived.
    """
    conns = [await _Connection(port).open() for _ in range(CONNECTIONS)]
    counter = itertools.count()
    responses: list[Response] = []
    cpu0 = proc_cpu_s(pid)
    start = time.perf_counter()

    async def client(conn: _Connection) -> None:
        while time.perf_counter() < start + seconds:
            index = next(counter) % len(pool)
            sent = time.perf_counter()
            status, body = await conn.post(pool[index])
            done = time.perf_counter()
            responses.append(Response(index, status, body, sent, done, cpu=proc_cpu_s(pid)))

    try:
        await asyncio.gather(*(client(conn) for conn in conns))
    finally:
        for conn in conns:
            await conn.close()
    return start, cpu0, responses


async def open_loop(port: int, pool: list[bytes], rate: float, seconds: float):
    """A request falls due every ``1/rate`` s; it waits for a free connection.

    Returns the responses in the order the requests fell due.
    """
    free: asyncio.Queue = asyncio.Queue()
    for _ in range(CONNECTIONS):
        free.put_nowait(await _Connection(port).open())
    responses: list[Response] = []
    t0 = time.perf_counter() + 0.01

    async def one(i: int) -> None:
        due = t0 + i / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        conn = await free.get()
        try:
            sent = time.perf_counter()
            index = i % len(pool)
            status, body = await conn.post(pool[index])
            responses.append(Response(index, status, body, sent, time.perf_counter(), due))
        finally:
            free.put_nowait(conn)

    try:
        await asyncio.gather(*(one(i) for i in range(max(1, round(rate * seconds)))))
    finally:
        while not free.empty():
            await free.get_nowait().close()
    return sorted(responses, key=lambda r: r.due)


def per_window(start: float, cpu0: float, closed: list[Response], opened: list[Response],
               closed_window: int, open_window: int) -> dict[str, list[float]]:
    """Each windowed metric: closed-loop windows for throughput and CPU, open-loop for latency."""
    done, cpus = [r.done for r in closed], [r.cpu for r in closed]
    latencies = _open_latencies_ms(opened)
    out: dict[str, list[float]] = {name: [] for name in WINDOWED}
    for window in windows(len(closed), closed_window, closed_window // 2):
        rate, cpu = rate_and_cpu(start, cpu0, done, cpus, window)
        out["throughput"].append(rate)
        out["cpu_ms_per_item"].append(cpu * 1e3)
    for window in windows(len(opened), open_window, open_window // 2):
        p50, p90 = latency_quantiles(latencies, window)
        out["p50_ms"].append(p50)
        out["p90_ms"].append(p90)
    return out


# ---------------------------------------------------------------------------
# the oracle and the workload


def check(cascade, pool: list[bytes], responses: list[Response]) -> tuple[int, int]:
    """``(checks, mismatches)``: every 200 body against the reference backend.

    ``trace_id``, ``timing`` and ``model_version`` differ per request,
    and ``simulated_detection_s`` is the shared schedule of the fused
    device batch the request rode in, so only the detections and the raw
    count are compared.
    """
    reference = FaceDetectionPipeline(cascade, config=PipelineConfig(backend="reference"))
    expected: dict[int, dict] = {}
    checks = mismatches = 0
    for r in responses:
        if r.status != 200:
            continue
        if r.index not in expected:
            payload = detections_payload(reference.process_frame(parse_pnm(pool[r.index])))
            expected[r.index] = json.loads(
                json.dumps({k: payload[k] for k in ("detections", "raw_count")})
            )
        got = json.loads(r.body)
        checks += 1
        mismatches += {k: got.get(k) for k in ("detections", "raw_count")} != expected[r.index]
    return checks, mismatches


def _open_latencies_ms(responses: list[Response]) -> list[float]:
    """Open-loop latency from the due time; a failed request never arrives."""
    return [
        (r.done - r.due) * 1e3 if r.status == 200 else float("inf") for r in responses
    ]


def measure(workload: str, pool: list[bytes], seconds: float, *, trace: bool,
            cold_starts: int) -> dict:
    """Run one serving workload; end-to-end metrics, or per-layer ones under ``trace``."""
    cascade_name, rate, closed_window, open_window = WORKLOADS[workload]
    closed_s, open_s = seconds * CLOSED_SHARE, seconds * (1 - CLOSED_SHARE)
    if not trace:
        setups = []

        def cold_start() -> Server:
            server = Server(workload, cascade_name)
            setups.append(server.setup_s)
            return server

        # cold starts before and after the one that serves the measured
        # load, so that one slow spell of a shared host reaches fewer of them
        after = cold_starts // 2
        for _ in range(cold_starts - after - 1):
            cold_start().stop()
        with cold_start() as server:
            start, cpu0, closed = asyncio.run(
                closed_loop(server.port, pool, closed_s, server.pid)
            )
            opened = asyncio.run(open_loop(server.port, pool, rate, open_s))
            peak_kb = proc_status_kb(server.pid, "VmHWM")
        for _ in range(after):
            cold_start().stop()
        metrics = summarise(
            per_window(start, cpu0, closed, opened, closed_window, open_window)
        )
        metrics["peak_rss_mb"] = (peak_kb / 1024, "MB", 1)
        metrics["setup_s"] = (median(setups), "s", len(setups))
    else:
        with Server(workload, cascade_name) as server:
            plain = asyncio.run(open_loop(server.port, pool, rate, seconds / 4))
        spans_path = OUT / f"spans-{workload}.json"
        with Server(workload, cascade_name, spans_path) as server:
            since = time.perf_counter()
            _, _, closed = asyncio.run(closed_loop(server.port, pool, closed_s, server.pid))
            opened = asyncio.run(open_loop(server.port, pool, rate, open_s))
            wall_s = time.perf_counter() - since
        recorder = tracing.Recorder.load(spans_path)
        metrics = tracing.layer_metrics(recorder, since, wall_s, workers=1)
        waits, forms, infers, rest, sizes = [], [], [], [], []
        for r in opened:
            if r.status != 200:
                continue
            timing = json.loads(r.body)["timing"]
            waits.append(timing["queue_wait_s"])
            forms.append(timing["batch_form_s"])
            infers.append(timing["infer_s"])
            sizes.append(timing["batch_size"])
            rest.append(
                r.done - r.sent - timing["queue_wait_s"] - timing["infer_s"]
                - timing["serialize_s"]
            )
        metrics.update(tracing.dispatch_metrics(waits, forms, infers, rest, sizes))
        traced_p50 = percentile(_open_latencies_ms(opened), 50)
        metrics["trace.overhead_ratio"] = (
            traced_p50 / percentile(_open_latencies_ms(plain), 50),
            "ratio",
            len(opened),
        )
        tracing.write_chrome(OUT / f"bench-trace-{workload}.json", recorder, since, server.pid)
        closed = closed + plain

    responses = closed + opened
    checks, mismatches = check(load_or_train(cascade_name)[0], pool, responses)
    transport = sum(r.status != 200 for r in responses)
    return {
        "attempted": len(responses),
        "failed": transport + mismatches,
        "checks": checks,
        "metrics": metrics,
    }
