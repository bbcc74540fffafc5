"""End-to-end service tests over real loopback sockets.

Every test drives a live :class:`~repro.serve.server.DetectionServer`
(port 0, quick cascade) through the stdlib client from
:mod:`repro.serve.loadgen` — the same path ``repro loadtest`` uses — so
the request lifecycle, admission behaviour and lifecycle endpoints are
exercised exactly as a network client sees them.
"""

import asyncio
import io
import json

import numpy as np
import pytest

from repro.serve.loadgen import _Connection, build_payloads, run_loadtest
from repro.serve.server import DetectionServer, ServerConfig
from repro.serve.admission import AdmissionConfig
from repro.video.pnm import encode_pgm

PGM = "application/octet-stream"


def serve(config: ServerConfig | None = None):
    """Decorator-free harness: run ``fn(server, conn)`` against a live server."""

    def runner(fn):
        async def drive():
            server = DetectionServer(
                config
                or ServerConfig(port=0, cascade="quick", workers=1, max_batch=4),
                log_stream=io.StringIO(),  # keep test output clean
            )
            await server.start()
            conn = _Connection("127.0.0.1", server.port)
            try:
                return await fn(server, conn)
            finally:
                conn.close()
                await server.drain()

        return asyncio.run(drive())

    return runner


@pytest.fixture(scope="module")
def payloads():
    return build_payloads(width=96, height=96, frames=2, faces=1, seed=0)


class TestRouting:
    def test_health_ready_metrics_stats(self, payloads):
        @serve()
        async def outcome(server, conn):
            results = {}
            for path in ("/healthz", "/readyz", "/metrics"):
                results[path] = await conn.request("GET", path)
            results["detect"] = await conn.request("POST", "/v1/detect", *payloads[0])
            results["/stats"] = await conn.request("GET", "/stats")
            results["nowhere"] = await conn.request("GET", "/nowhere")
            return results

        assert outcome["/healthz"][0] == 200
        assert outcome["/readyz"][0] == 200
        assert outcome["detect"][0] == 200
        body = json.loads(outcome["detect"][1])
        assert set(body) == {
            "detections", "raw_count", "simulated_detection_s",
            "trace_id", "timing", "model_version",
        }
        assert body["model_version"].startswith("quick@")
        metrics = json.loads(outcome["/metrics"][1])
        assert "counters" in metrics and "histograms" in metrics
        stats = json.loads(outcome["/stats"][1])
        assert stats["serve"]["state"] == "ready"
        assert stats["serve"]["admission"]["admitted"] >= 1
        assert stats["serve"]["batcher"]["max_batch"] == 4
        assert outcome["nowhere"][0] == 404

    def test_wrong_method_is_405_with_allow(self, payloads):
        @serve()
        async def outcome(server, conn):
            get_detect = await conn.request("GET", "/v1/detect")
            post_health = await conn.request("POST", "/healthz", b"x", "text/plain")
            return get_detect, post_health

        (status, body), (status2, _) = outcome
        assert status == 405
        assert status2 == 405

    def test_client_errors_are_4xx_never_500(self, payloads):
        cases = [
            (b"", PGM, 411),  # empty body
            (b"P5 busted", PGM, 400),  # malformed PNM header
            (b"P5 64 48 255\n" + b"\x00" * 4, PGM, 400),  # truncated pixels
            (b"{not json", "application/json", 400),
            (b'{"source": "warp-drive"}', "application/json", 400),
            (b"data", "image/gif", 415),
        ]

        @serve()
        async def outcome(server, conn):
            results = []
            for body, ctype, _ in cases:
                results.append(await conn.request("POST", "/v1/detect", body, ctype))
            # the connection must still work after every client error
            results.append(await conn.request("POST", "/v1/detect", *payloads[0]))
            return results

        for (status, body), (_, _, want) in zip(outcome[:-1], cases):
            assert status == want, body
            assert json.loads(body)["error"]
        assert outcome[-1][0] == 200

    def test_oversized_body_is_413(self):
        config = ServerConfig(
            port=0, cascade="quick", workers=0, max_batch=2, max_body_bytes=4096
        )

        @serve(config)
        async def outcome(server, conn):
            big = encode_pgm(np.zeros((128, 128), dtype=np.float32))
            return await conn.request("POST", "/v1/detect", big, PGM)

        status, body = outcome
        assert status == 413
        assert b"4096" in body


class TestIdentity:
    def test_responses_byte_identical_to_direct_pipeline(self, payloads):
        """The serving contract: batching must not perturb detections."""
        from repro.serve.protocol import (
            HttpRequest,
            decode_frame,
            detections_payload,
            json_body,
        )
        from repro.serve.server import _build_pipeline
        from repro.obs.tracer import NULL_TRACER

        pipeline = _build_pipeline("quick", None, NULL_TRACER)
        expected = []
        for body, ctype in payloads:
            request = HttpRequest(
                method="POST",
                target="/v1/detect",
                version="HTTP/1.1",
                headers={"content-type": ctype},
                body=body,
            )
            result = pipeline.process_frame(decode_frame(request))
            expected.append(json_body(detections_payload(result)))

        @serve()
        async def outcome(server, conn):
            # fire all payloads concurrently so they coalesce into real
            # batches, interleaved twice to shuffle completion order
            async def fetch(payload):
                c = _Connection("127.0.0.1", server.port)
                try:
                    return await c.request("POST", "/v1/detect", *payload)
                finally:
                    c.close()

            doubled = list(payloads) * 2
            return await asyncio.gather(*(fetch(p) for p in doubled))

        for (status, got), want in zip(outcome, expected * 2):
            assert status == 200
            # the detection content must be byte-for-byte identical once
            # the per-request additions (trace_id, timing) are stripped
            payload = json.loads(got)
            subset = {
                k: payload[k]
                for k in ("detections", "raw_count", "simulated_detection_s")
            }
            assert json_body(subset) == want

    def test_json_reference_matches_direct_pipeline(self):
        """A frame reference answers exactly like the pipeline on the
        renderer's float frame (no PGM quantisation on this path)."""
        from repro.obs.tracer import NULL_TRACER
        from repro.serve.protocol import detections_payload, json_body
        from repro.serve.server import _build_pipeline
        from repro.video.stream import synthetic_stream

        packet = next(iter(synthetic_stream(96, 96, 1, faces=1, seed=4)))
        pipeline = _build_pipeline("quick", None, NULL_TRACER)
        want = json_body(detections_payload(pipeline.process_frame(packet.luma)))
        ref = (
            json.dumps(
                {
                    "source": "synthetic",
                    "width": 96,
                    "height": 96,
                    "frame": 0,
                    "faces": 1,
                    "seed": 4,
                }
            ).encode(),
            "application/json",
        )

        @serve()
        async def outcome(server, conn):
            return await conn.request("POST", "/v1/detect", *ref)

        status, got = outcome
        assert status == 200
        payload = json.loads(got)
        subset = {
            k: payload[k]
            for k in ("detections", "raw_count", "simulated_detection_s")
        }
        assert json_body(subset) == want


class TestAdmission:
    def test_full_queue_burst_returns_429_not_hang_not_500(self, payloads):
        config = ServerConfig(
            port=0,
            cascade="quick",
            workers=0,
            max_batch=1,
            admission=AdmissionConfig(max_queue=1, max_concurrency=2),
        )

        @serve(config)
        async def outcome(server, conn):
            async def fire():
                c = _Connection("127.0.0.1", server.port)
                try:
                    return await c.request("POST", "/v1/detect", *payloads[0])
                finally:
                    c.close()

            results = await asyncio.gather(*(fire() for _ in range(12)))
            stats = json.loads((await conn.request("GET", "/stats"))[1])
            return results, stats

        results, stats = outcome
        statuses = sorted(status for status, _ in results)
        assert set(statuses) <= {200, 429}
        assert statuses.count(429) >= 1, "burst over the bound must shed"
        assert statuses.count(200) >= 1, "the admitted requests must finish"
        for status, body in results:
            if status == 429:
                payload = json.loads(body)
                assert payload["reason"] in ("queue", "concurrency", "deadline")
                assert payload["retry_after_s"] > 0
        shed = stats["serve"]["admission"]["shed"]
        assert sum(shed.values()) == statuses.count(429)

    def test_queue_deadline_expiry_is_counted_as_a_deadline_shed(self, payloads):
        config = ServerConfig(
            port=0,
            cascade="quick",
            workers=0,
            max_batch=1,
            admission=AdmissionConfig(queue_budget_s=1e-9),  # every request expires
        )

        @serve(config)
        async def outcome(server, conn):
            results = [
                await conn.request("POST", "/v1/detect", *payloads[0]) for _ in range(3)
            ]
            stats = json.loads((await conn.request("GET", "/stats"))[1])
            metrics = json.loads((await conn.request("GET", "/metrics"))[1])
            return results, stats, metrics

        results, stats, metrics = outcome
        for status, body in results:
            assert status == 429
            assert json.loads(body)["reason"] == "deadline"
        shed = stats["serve"]["admission"]["shed"]
        assert shed == {"queue": 0, "concurrency": 0, "deadline": 3}
        assert metrics["counters"]["serve.shed.deadline"] == 3

    def test_retry_after_header_on_429(self):
        config = ServerConfig(
            port=0,
            cascade="quick",
            workers=0,
            max_batch=1,
            admission=AdmissionConfig(max_concurrency=1, retry_after_s=0.2),
        )
        # a big frame keeps the single admission slot busy long enough
        # that the raced request deterministically sheds: its first
        # request builds a new geometry and runs for several times the
        # 20 ms head start below
        slow = encode_pgm(np.zeros((512, 512), dtype=np.float32))

        def head(body: bytes) -> bytes:
            return (
                "POST /v1/detect HTTP/1.1\r\n"
                "Content-Type: application/octet-stream\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode()

        @serve(config)
        async def outcome(server, conn):
            first_r, first_w = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            first_w.write(head(slow) + slow)
            await first_w.drain()
            await asyncio.sleep(0.02)  # the slot is now held
            raced_r, raced_w = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            raced_w.write(head(slow) + slow)
            await raced_w.drain()
            raced_head = await raced_r.readuntil(b"\r\n\r\n")
            first_head = await first_r.readuntil(b"\r\n\r\n")
            first_w.close()
            raced_w.close()
            return first_head, raced_head

        first_head, raced_head = outcome
        assert b" 200 " in first_head.split(b"\r\n")[0]
        assert b" 429 " in raced_head.split(b"\r\n")[0]
        assert b"Retry-After: 1" in raced_head  # ceil(0.2s) -> 1s


class TestLifecycle:
    def test_readyz_flips_during_drain_and_inflight_finishes(self):
        """K8s ordering: /readyz answers 503 while admitted work drains."""
        # big enough to still be inferring after the 20 ms head start
        slow = (encode_pgm(np.zeros((512, 512), dtype=np.float32)), PGM)

        @serve()
        async def outcome(server, conn):
            before = await conn.request("GET", "/readyz")
            inflight = asyncio.ensure_future(
                conn.request("POST", "/v1/detect", *slow)
            )
            await asyncio.sleep(0.02)  # the detect now holds a busy slot
            drain = asyncio.ensure_future(server.drain())
            await asyncio.sleep(0)  # drain flips the state, then waits
            second = _Connection("127.0.0.1", server.port)
            during_ready = await second.request("GET", "/readyz")
            during_detect = await second.request("POST", "/v1/detect", *slow)
            second.close()
            finished = await inflight
            await drain
            return before, during_ready, during_detect, finished

        before, during_ready, during_detect, finished = outcome
        assert before[0] == 200
        assert during_ready[0] == 503
        assert json.loads(during_ready[1])["status"] == "draining"
        assert during_detect[0] == 503
        assert finished[0] == 200, "admitted work must finish during drain"

    def test_drain_finishes_inflight_requests(self, payloads):
        @serve()
        async def outcome(server, conn):
            inflight = asyncio.ensure_future(
                conn.request("POST", "/v1/detect", *payloads[0])
            )
            await asyncio.sleep(0.005)  # request is queued or inferring
            await server.drain()
            return await inflight

        status, body = outcome
        assert status == 200
        assert json.loads(body)["raw_count"] >= 0

    def test_double_drain_is_idempotent(self):
        @serve()
        async def outcome(server, conn):
            await asyncio.gather(server.drain(), server.drain())
            return True

        assert outcome


class TestLoadgen:
    def test_closed_loop_against_live_server(self, payloads):
        @serve()
        async def outcome(server, conn):
            return await run_loadtest(
                "127.0.0.1",
                server.port,
                requests=12,
                concurrency=3,
                payloads=payloads,
            )

        assert outcome.ok == 12
        assert outcome.errors == 0
        summary = outcome.latency_summary()
        assert summary["count"] == 12
        assert 0 < summary["p50_s"] <= summary["p95_s"] <= summary["max_s"]
        assert outcome.rps > 0
        assert outcome.mode == "closed"

    def test_open_loop_against_live_server(self, payloads):
        @serve()
        async def outcome(server, conn):
            return await run_loadtest(
                "127.0.0.1",
                server.port,
                requests=8,
                concurrency=4,
                rate_rps=200.0,
                payloads=payloads,
            )

        assert outcome.mode == "open"
        assert outcome.ok + outcome.shed + outcome.errors == 8
        assert outcome.errors == 0
