"""Hot-swap benchmark: serving latency and availability across a model flip.

Drives one :class:`~repro.serve.server.DetectionServer` through three
load phases around a live ``POST /v1/models/swap``:

1. **steady** — a closed-loop run against the initial model, the
   latency baseline;
2. **window** — the swap is issued and closed-loop load keeps hammering
   the server for exactly as long as the swap is in flight (load, warm,
   flip, retire all happen under fire);
3. **after** — a second closed-loop run, now against the new model.

Throughout all three phases a dedicated connection polls ``/readyz``
every ~20 ms.  The zero-downtime contract the artifact gates on:

* **no failed requests** — every request in every phase answers 200
  (no transport errors, no 5xx, no shed);
* **``/readyz`` never flips false** — the swap must not pass through
  any not-ready state;
* **the version actually flips** — the steady phase is served entirely
  by the old version tag, the after phase entirely by the new one;
* **bounded latency impact** — the swap-window p95 stays within 1.5x
  of the steady-state p95 (the slower of the two models' steady runs,
  so a swap *to* a heavier cascade is not miscounted as swap overhead).

Writes ``BENCH_swap.json`` (schema v1) with per-phase loadtest results,
the server's swap summary (warm/flip timings), the readyz poll record
and the standard provenance block.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError, ServeError
from repro.serve.loadgen import LoadTestResult, _Connection, build_payloads, run_loadtest
from repro.utils.provenance import provenance
from repro.utils.tables import format_table

__all__ = ["SwapResult", "run_swap", "BENCH_SWAP_SCHEMA_VERSION"]

#: ``BENCH_swap.json`` schema: 1 is the three-phase (steady / window /
#: after) comparison with the readyz poll record and the swap summary
BENCH_SWAP_SCHEMA_VERSION = 1


@dataclass
class SwapResult:
    """Outcome of one hot-swap-under-load run."""

    width: int
    height: int
    frames: int
    requests: int
    concurrency: int
    model: str
    swap_to: str
    backend: str
    workers: int
    max_batch: int
    max_delay_s: float
    steady: LoadTestResult = field(repr=False)
    window: LoadTestResult = field(repr=False)
    after: LoadTestResult = field(repr=False)
    swap: dict = field(repr=False)
    readyz: dict = field(repr=False)

    @property
    def failed_requests(self) -> int:
        """Transport errors plus any non-200 status, across all phases."""
        failed = 0
        for run in (self.steady, self.window, self.after):
            failed += run.errors
            failed += sum(
                count
                for status, count in run.status_counts.items()
                if status != "200"
            )
        return failed

    @property
    def steady_p95_s(self) -> float:
        """Steady-state p95: the slower of the two models' steady runs."""
        return max(
            self.steady.latency_summary().get("p95_s", 0.0),
            self.after.latency_summary().get("p95_s", 0.0),
        )

    @property
    def swap_p95_s(self) -> float:
        return self.window.latency_summary().get("p95_s", 0.0)

    @property
    def ratio(self) -> float:
        base = self.steady_p95_s
        return self.swap_p95_s / base if base > 0 else 0.0

    @property
    def flipped(self) -> bool:
        """Old tag exclusively before, new tag exclusively after."""
        previous = self.swap.get("previous")
        serving = self.swap.get("serving")
        return (
            previous is not None
            and serving is not None
            and previous != serving
            and set(self.steady.versions_served()) == {previous}
            and set(self.after.versions_served()) == {serving}
        )

    def to_dict(self) -> dict:
        return {
            "experiment": "swap",
            "schema_version": BENCH_SWAP_SCHEMA_VERSION,
            "provenance": provenance(backend=self.backend, mode="threads"),
            "workload": {
                "frame_width": self.width,
                "frame_height": self.height,
                "payload_frames": self.frames,
                "requests_per_phase": self.requests,
                "concurrency": self.concurrency,
                "model": self.model,
                "swap_to": self.swap_to,
                "workers": self.workers,
                "max_batch": self.max_batch,
                "max_delay_s": self.max_delay_s,
            },
            "phases": {
                "steady": self.steady.to_dict(),
                "window": self.window.to_dict(),
                "after": self.after.to_dict(),
            },
            "swap": self.swap,
            "readyz": self.readyz,
            "latency": {
                "steady_p95_s": self.steady_p95_s,
                "swap_p95_s": self.swap_p95_s,
                "ratio": self.ratio,
            },
            "failed_requests": self.failed_requests,
            "versions": {
                "before": self.swap.get("previous"),
                "after": self.swap.get("serving"),
                "flipped": self.flipped,
            },
        }

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    def format_table(self) -> str:
        def row(label: str, run: LoadTestResult) -> list:
            lat = run.latency_summary()
            versions = run.versions_served()
            return [
                label,
                run.ok,
                run.errors + (run.requests - run.ok - run.errors),
                round(lat.get("p50_s", 0.0) * 1e3, 1),
                round(lat.get("p95_s", 0.0) * 1e3, 1),
                "+".join(versions) if versions else "-",
            ]

        table = format_table(
            ["phase", "ok", "failed", "p50 ms", "p95 ms", "served by"],
            [
                row("steady", self.steady),
                row("swap window", self.window),
                row("after", self.after),
            ],
            title=(
                f"Hot swap {self.model} -> {self.swap_to} — "
                f"{self.requests} requests/phase x {self.width}x{self.height} "
                f"frames at concurrency {self.concurrency}, {self.backend} "
                f"backend"
            ),
        )
        return table + (
            f"\nswap: {self.swap.get('previous')} -> {self.swap.get('serving')}"
            f" in {self.swap.get('total_s', 0.0):.3f}s"
            f" (warm {self.swap.get('warm_s', 0.0):.3f}s,"
            f" flip {self.swap.get('flip_s', 0.0) * 1e3:.2f}ms)"
            f"\nswap-window p95 / steady p95: {self.ratio:.2f}x"
            f"\nreadyz: {self.readyz['polls']} polls,"
            f" {self.readyz['not_ready']} not ready"
            f"\nfailed requests: {self.failed_requests}"
        )


async def _poll_readyz(
    host: str, port: int, stop: asyncio.Event, interval_s: float = 0.02
) -> dict:
    """Poll ``/readyz`` until ``stop``; count any non-200 answer."""
    conn = _Connection(host, port)
    polls = 0
    not_ready = 0
    try:
        while not stop.is_set():
            try:
                status, _ = await conn.request("GET", "/readyz")
            except (
                ConnectionError,
                OSError,
                ServeError,
                asyncio.IncompleteReadError,
            ):
                status = 0
            polls += 1
            if status != 200:
                not_ready += 1
            try:
                await asyncio.wait_for(stop.wait(), interval_s)
            except asyncio.TimeoutError:
                pass
    finally:
        conn.close()
    return {"polls": polls, "not_ready": not_ready, "always_ready": not_ready == 0}


async def _post_swap(host: str, port: int, ref: str) -> tuple[int, dict]:
    conn = _Connection(host, port)
    try:
        status, body = await conn.request(
            "POST",
            "/v1/models/swap",
            json.dumps({"model": ref}).encode("ascii"),
            "application/json",
        )
    finally:
        conn.close()
    try:
        payload = json.loads(body)
    except ValueError:
        payload = {}
    return status, payload


def run_swap(
    *,
    model: str = "quick",
    swap_to: str = "quick_baseline",
    requests: int = 64,
    concurrency: int = 4,
    width: int = 96,
    height: int = 96,
    frames: int = 6,
    faces: int = 1,
    backend: str | None = None,
    workers: int = 1,
    max_batch: int = 4,
    max_delay_s: float = 0.004,
    seed: int = 0,
) -> SwapResult:
    """Run the three-phase hot-swap benchmark on a loopback server.

    Both model references are resolved (training on demand) *before*
    the server starts, so the measured swap window is the serving-side
    work — store load, engine build, warm, flip, retire — not a
    first-ever training run.
    """
    if requests < concurrency:
        raise ConfigurationError(
            f"requests ({requests}) must be >= concurrency ({concurrency})"
        )
    if model == swap_to:
        raise ConfigurationError(
            f"swap target must differ from the initial model, both are {model!r}"
        )
    from repro.zoo import resolve_model

    resolve_model(model, seed=seed)
    resolve_model(swap_to, seed=seed)

    payloads = build_payloads(
        width=width, height=height, frames=frames, faces=faces, seed=seed
    )

    async def drive() -> tuple:
        from repro.serve.server import DetectionServer, ServerConfig

        server = DetectionServer(
            ServerConfig(
                port=0,
                model=model,
                backend=backend,
                workers=workers,
                sharding="threads",
                max_batch=max_batch,
                max_delay_s=max_delay_s,
            )
        )
        await server.start()
        try:
            stop = asyncio.Event()
            poller = asyncio.create_task(
                _poll_readyz("127.0.0.1", server.port, stop)
            )
            steady = await run_loadtest(
                "127.0.0.1",
                server.port,
                requests=requests,
                concurrency=concurrency,
                payloads=payloads,
                capture_versions=True,
            )
            done = asyncio.Event()

            async def do_swap() -> tuple[int, dict]:
                try:
                    return await _post_swap("127.0.0.1", server.port, swap_to)
                finally:
                    done.set()

            swap_task = asyncio.create_task(do_swap())
            window = await run_loadtest(
                "127.0.0.1",
                server.port,
                concurrency=concurrency,
                payloads=payloads,
                capture_versions=True,
                until=done,
            )
            swap_status, swap_body = await swap_task
            after = await run_loadtest(
                "127.0.0.1",
                server.port,
                requests=requests,
                concurrency=concurrency,
                payloads=payloads,
                capture_versions=True,
            )
            stop.set()
            readyz = await poller
        finally:
            await server.drain()
        return steady, window, swap_status, swap_body, after, readyz

    steady, window, swap_status, swap_body, after, readyz = asyncio.run(drive())
    if swap_status != 200:
        raise ServeError(
            f"model swap to {swap_to!r} answered {swap_status}: {swap_body}"
        )

    from repro.backend import get_backend

    return SwapResult(
        width=width,
        height=height,
        frames=frames,
        requests=requests,
        concurrency=concurrency,
        model=model,
        swap_to=swap_to,
        backend=get_backend(backend).name,
        workers=workers,
        max_batch=max_batch,
        max_delay_s=max_delay_s,
        steady=steady,
        window=window,
        after=after,
        swap={
            "status": swap_status,
            "previous": swap_body.get("previous"),
            "serving": swap_body.get("serving"),
            "total_s": swap_body.get("total_s", 0.0),
            "warm_s": swap_body.get("warm_s", 0.0),
            "flip_s": swap_body.get("flip_s", 0.0),
        },
        readyz=readyz,
    )
