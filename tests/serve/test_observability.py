"""End-to-end observability: one trace id through every telemetry surface.

The acceptance path: a request into a process-sharded server answers
with an ``x-repro-trace-id`` header whose id also appears (1) in the
response body, (2) on a worker-side span in the merged Chrome trace,
(3) on the request's structured-log line, and (4) in the flight-recorder
dump — plus the Prometheus/JSON ``/metrics`` agreement and exactly-once
log accounting the rest of the issue asks for.
"""

import asyncio
import io
import json

import pytest

from repro.serve.admission import AdmissionConfig
from repro.serve.loadgen import _Connection, build_payloads, run_loadtest
from repro.serve.server import DetectionServer, ServerConfig, TRACE_ID_HEADER

from tests.obs.test_prom import parse_exposition

REF = (
    json.dumps({"source": "synthetic", "width": 96, "height": 96}).encode(),
    "application/json",
)


def serve(config: ServerConfig, fn):
    """Run ``fn(server, conn, log_stream)`` against a live server."""

    async def drive():
        stream = io.StringIO()
        server = DetectionServer(config, log_stream=stream)
        await server.start()
        conn = _Connection("127.0.0.1", server.port)
        try:
            return await fn(server, conn, stream)
        finally:
            conn.close()
            await server.drain()

    return asyncio.run(drive())


def log_records(stream: io.StringIO) -> list[dict]:
    return [json.loads(line) for line in stream.getvalue().splitlines()]


class TestTraceEndToEnd:
    def test_one_id_on_every_surface_with_process_sharding(self):
        """The acceptance criterion, verbatim."""
        config = ServerConfig(
            port=0, cascade="quick", workers=2, sharding="processes",
            max_batch=4, log_format="json", trace=True,
        )

        async def scenario(server, conn, stream):
            status, body = await conn.request("POST", "/v1/detect", *REF)
            header = conn.last_headers.get(TRACE_ID_HEADER)
            _, flight_body = await conn.request("GET", "/debug/flight")
            return status, body, header, json.loads(flight_body), server, stream

        status, body, header, flight, server, stream = serve(config, scenario)
        assert status == 200
        payload = json.loads(body)
        trace_id = payload["trace_id"]

        # (0) header and body agree
        assert header == trace_id
        assert len(trace_id) == 32

        # the timing breakdown is present and plausible
        timing = payload["timing"]
        assert set(timing) == {
            "queue_wait_s", "batch_form_s", "infer_s", "serialize_s",
            "batch_size",
        }
        assert timing["batch_size"] >= 1
        for leg in ("queue_wait_s", "batch_form_s", "infer_s", "serialize_s"):
            assert timing[leg] >= 0.0

        # (1) a worker-side span in the merged Chrome trace carries the id
        traced = [
            s for s in server.tracer.spans()
            if s.args.get("trace") == trace_id
        ]
        assert traced, "no span carries the request's trace id"
        worker_frame_spans = [
            s for s in traced if s.name == "frame" and "pid" in s.args
        ]
        assert worker_frame_spans, (
            "the engine-worker frame span must carry the trace id across "
            "the process boundary"
        )

        # (2) the request's JSON log line carries the id and the worker
        requests = [r for r in log_records(stream) if r["event"] == "request"]
        (line,) = requests
        assert line["trace_id"] == trace_id
        assert line["status"] == 200
        assert line["worker"].startswith("pid ")

        # (3) the flight recorder holds the same request event
        flight_requests = [
            e for e in flight["events"] if e["kind"] == "request"
        ]
        assert any(e["trace_id"] == trace_id for e in flight_requests)

    @pytest.mark.parametrize("sharding", ["threads", "processes"])
    def test_every_fused_request_reaches_a_worker_span(self, sharding):
        """Two requests fused into one device batch: both trace ids
        land on the worker-side ``frame`` span of that batch."""
        config = ServerConfig(
            port=0, cascade="quick", workers=2, sharding=sharding,
            max_batch=2, max_delay_s=5.0, device_batch=True, trace=True,
        )

        async def scenario(server, conn, stream):
            async def fire():
                c = _Connection("127.0.0.1", server.port)
                try:
                    return await c.request("POST", "/v1/detect", *REF)
                finally:
                    c.close()

            return await asyncio.gather(fire(), fire()), server

        responses, server = serve(config, scenario)
        assert [status for status, _ in responses] == [200, 200]
        payloads = [json.loads(body) for _, body in responses]
        assert [p["timing"]["batch_size"] for p in payloads] == [2, 2]
        on_worker_spans = set()
        for s in server.tracer.spans():
            if s.name == "frame" and s.cat == "engine":
                on_worker_spans.add(s.args.get("trace"))
                on_worker_spans.update(s.args.get("traces", ()))
        for payload in payloads:
            assert payload["trace_id"] in on_worker_spans

    def test_client_traceparent_is_adopted(self):
        config = ServerConfig(port=0, cascade="quick", workers=0, max_batch=1)
        incoming = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"

        async def scenario(server, conn, stream):
            return await conn.request(
                "POST", "/v1/detect", *REF, headers={"traceparent": incoming}
            )

        status, body = serve(config, scenario)
        assert status == 200
        assert json.loads(body)["trace_id"] == "ab" * 16

    def test_error_responses_carry_the_trace_header_too(self):
        config = ServerConfig(port=0, cascade="quick", workers=0, max_batch=1)

        async def scenario(server, conn, stream):
            status, body = await conn.request(
                "POST", "/v1/detect", b"{not json", "application/json"
            )
            return status, body, conn.last_headers.get(TRACE_ID_HEADER)

        status, body, header = serve(config, scenario)
        assert status == 400
        assert json.loads(body)["trace_id"] == header
        assert len(header) == 32


class TestMetricsNegotiation:
    config = ServerConfig(port=0, cascade="quick", workers=0, max_batch=2)

    def test_query_param_and_accept_header_select_prom(self):
        async def scenario(server, conn, stream):
            out = {}
            await conn.request("POST", "/v1/detect", *REF)
            out["default"] = await conn.request("GET", "/metrics")
            out["default_ct"] = conn.last_headers.get("content-type")
            out["query"] = await conn.request("GET", "/metrics?format=prom")
            out["query_ct"] = conn.last_headers.get("content-type")
            out["accept"] = await conn.request(
                "GET", "/metrics", headers={"Accept": "text/plain"}
            )
            out["json_forced"] = await conn.request(
                "GET", "/metrics?format=json", headers={"Accept": "text/plain"}
            )
            out["bad"] = await conn.request("GET", "/metrics?format=xml")
            return out

        out = serve(self.config, scenario)
        assert out["default"][0] == 200
        assert out["default_ct"] == "application/json"
        json.loads(out["default"][1])  # JSON view parses

        assert out["query"][0] == 200
        assert out["query_ct"].startswith("text/plain; version=0.0.4")
        parse_exposition(out["query"][1].decode())  # 0.0.4 view parses

        assert out["accept"][0] == 200
        parse_exposition(out["accept"][1].decode())

        assert out["json_forced"][0] == 200
        json.loads(out["json_forced"][1])

        assert out["bad"][0] == 400

    def test_prom_and_json_agree_on_every_counter(self):
        """The acceptance criterion: same scrape, same counter values."""

        async def scenario(server, conn, stream):
            for _ in range(3):
                await conn.request("POST", "/v1/detect", *REF)
            _, json_view = await conn.request("GET", "/metrics")
            _, prom_view = await conn.request("GET", "/metrics?format=prom")
            return json.loads(json_view), prom_view.decode()

        json_view, prom_view = serve(self.config, scenario)
        from repro.obs.prom import sanitize_metric_name

        samples = parse_exposition(prom_view)
        assert json_view["counters"], "scrape saw no counters"
        for name, value in json_view["counters"].items():
            prom_name = sanitize_metric_name(name)
            assert samples[prom_name] == value, name
        # requests were actually counted
        assert json_view["counters"]["serve.requests"] >= 3


class TestConcurrentScrapes:
    def test_scrapes_race_writers_without_torn_values(self):
        """JSON and Prometheus scrapes hammering a server under load:
        counters monotone, instrument sets identical, no torn values."""
        config = ServerConfig(port=0, cascade="quick", workers=0, max_batch=2)

        async def scenario(server, conn, stream):
            payloads = build_payloads(width=96, height=96, frames=2)
            stop = asyncio.Event()

            async def writer():
                c = _Connection("127.0.0.1", server.port)
                try:
                    while not stop.is_set():
                        await c.request("POST", "/v1/detect", *payloads[0])
                finally:
                    c.close()

            async def scraper() -> list[tuple[dict, dict[str, float]]]:
                # one connection: within a scraper the server processes
                # the scrapes in order, so its counters must be monotone
                scraped = []
                c = _Connection("127.0.0.1", server.port)
                try:
                    for _ in range(25):
                        _, json_view = await c.request("GET", "/metrics")
                        _, prom_view = await c.request(
                            "GET", "/metrics?format=prom"
                        )
                        scraped.append(
                            (
                                json.loads(json_view),
                                parse_exposition(prom_view.decode()),
                            )
                        )
                finally:
                    c.close()
                return scraped

            writers = [asyncio.ensure_future(writer()) for _ in range(3)]
            per_scraper = await asyncio.gather(scraper(), scraper())
            stop.set()
            await asyncio.gather(*writers)
            return per_scraper

        per_scraper = serve(config, scenario)
        from repro.obs.prom import sanitize_metric_name

        assert all(len(scraped) == 25 for scraped in per_scraper)
        for scraped in per_scraper:
            last_requests = 0.0
            for json_view, prom_samples in scraped:
                counters = json_view["counters"]
                requests = counters.get("serve.requests", 0.0)
                assert requests >= last_requests, "counter went backwards"
                last_requests = requests
                # every JSON instrument appears in the Prometheus view
                # scraped immediately after it (registration is monotone)
                for name in counters:
                    assert sanitize_metric_name(name) in prom_samples
                for name in json_view["gauges"]:
                    assert sanitize_metric_name(name) in prom_samples
                # no torn histogram: a sampled summary must be ordered
                for name, summary in json_view["histograms"].items():
                    prom = sanitize_metric_name(name)
                    assert prom_samples[prom + "_count"] >= 0
                    if summary["count"]:
                        assert summary["min"] <= summary["p50"] <= summary["p95"]
                        assert summary["p95"] <= summary["max"]
                        assert (
                            summary["count"] * summary["min"]
                            <= summary["sum"] + 1e-9
                        )
            assert last_requests > 0, "scraper never saw a counted request"

    def test_monotone_counters_across_sequential_scrapes(self):
        config = ServerConfig(port=0, cascade="quick", workers=0, max_batch=2)

        async def scenario(server, conn, stream):
            views = []
            for _ in range(4):
                await conn.request("POST", "/v1/detect", *REF)
                _, body = await conn.request("GET", "/metrics")
                views.append(json.loads(body)["counters"]["serve.requests"])
            return views

        views = serve(config, scenario)
        assert views == sorted(views)
        assert views[-1] == 4.0


class TestExactlyOnceAccounting:
    def test_every_request_logged_once_including_sheds(self):
        """requests logged == requests answered, 429s and errors included."""
        config = ServerConfig(
            port=0, cascade="quick", workers=0, max_batch=1,
            log_format="json",
            admission=AdmissionConfig(max_queue=1, max_concurrency=2),
        )

        async def scenario(server, conn, stream):
            payloads = build_payloads(width=96, height=96, frames=2)

            async def fire():
                c = _Connection("127.0.0.1", server.port)
                try:
                    return await c.request("POST", "/v1/detect", *payloads[0])
                finally:
                    c.close()

            results = await asyncio.gather(*(fire() for _ in range(12)))
            bad = await conn.request(
                "POST", "/v1/detect", b"{not json", "application/json"
            )
            return results, bad, stream

        results, bad, stream = serve(config, scenario)
        statuses = [status for status, _ in results] + [bad[0]]
        records = [r for r in log_records(stream) if r["event"] == "request"]
        assert len(records) == len(statuses) == 13
        assert sorted(r["status"] for r in records) == sorted(statuses)
        shed = [r for r in records if r["status"] == 429]
        assert all(r["shed_reason"] in ("queue", "concurrency", "deadline")
                   for r in shed)
        assert all(len(r["trace_id"]) == 32 for r in records)
        # ids are unique per request
        assert len({r["trace_id"] for r in records}) == 13


class TestFlightEndpointAndStats:
    def test_debug_flight_and_stats_observability_block(self):
        config = ServerConfig(
            port=0, cascade="quick", workers=0, max_batch=1,
            log_format="json", flight_capacity=8,
        )

        async def scenario(server, conn, stream):
            for _ in range(3):
                await conn.request("POST", "/v1/detect", *REF)
            _, flight = await conn.request("GET", "/debug/flight")
            _, stats = await conn.request("GET", "/stats")
            return json.loads(flight), json.loads(stats)

        flight, stats = serve(config, scenario)
        kinds = [e["kind"] for e in flight["events"]]
        assert kinds.count("request") == 3
        assert "lifecycle" in kinds
        assert flight["capacity"] == 8

        obs = stats["serve"]["observability"]
        assert obs["flight"]["capacity"] == 8
        assert obs["flight"]["recorded"] == flight["recorded"]
        assert obs["log"]["format"] == "json"
        assert obs["log"]["emitted"] >= 5  # 3 requests + lifecycle events
        assert obs["log"]["suppressed"] == 0

    def test_dump_flight_writes_configured_path(self, tmp_path):
        path = tmp_path / "FLIGHT_test.json"
        config = ServerConfig(
            port=0, cascade="quick", workers=0, max_batch=1,
            flight_path=str(path),
        )

        async def scenario(server, conn, stream):
            await conn.request("POST", "/v1/detect", *REF)
            return server.dump_flight(reason="test")

        dumped = serve(config, scenario)
        assert dumped == str(path)
        on_disk = json.loads(path.read_text())
        assert on_disk["reason"] == "test"
        assert any(e["kind"] == "request" for e in on_disk["events"])


class TestLoadgenTraceCapture:
    def test_loadtest_reports_slowest_with_trace_ids(self):
        config = ServerConfig(port=0, cascade="quick", workers=0, max_batch=4)

        async def scenario(server, conn, stream):
            return await run_loadtest(
                "127.0.0.1", server.port, requests=8, concurrency=2,
                payloads=build_payloads(width=96, height=96, frames=2),
            )

        result = serve(config, scenario)
        assert result.ok == 8
        assert len(result.trace_ids) == 8
        assert all(t and len(t) == 32 for t in result.trace_ids)
        slowest = result.slowest(3)
        assert len(slowest) == 3
        lats = [entry["latency_s"] for entry in slowest]
        assert lats == sorted(lats, reverse=True)
        assert lats[0] == max(result.latencies_s)
        assert all(entry["trace_id"] in result.trace_ids for entry in slowest)
        assert result.to_dict()["slowest"] == result.slowest()
