"""StructuredLogger: formats, levels, and exact rate-limit accounting."""

import io
import json
import threading

import pytest

from repro.errors import ConfigurationError
from repro.obs.log import (
    LOG_LEVEL_ENV,
    NULL_LOGGER,
    StructuredLogger,
    parse_level,
)


def lines(stream: io.StringIO) -> list[str]:
    return stream.getvalue().splitlines()


class TestFormats:
    def test_json_lines_parse_and_carry_fields(self):
        stream = io.StringIO()
        log = StructuredLogger("json", stream=stream)
        log.event("request", trace_id="abc", status=200, latency_s=0.01)
        (line,) = lines(stream)
        record = json.loads(line)
        assert record["event"] == "request"
        assert record["level"] == "info"
        assert record["trace_id"] == "abc"
        assert record["status"] == 200
        assert record["ts"] > 0
        # the grep target CI relies on: a literal '"event": "request"'
        assert '"event": "request"' in line

    def test_text_format(self):
        stream = io.StringIO()
        log = StructuredLogger("text", stream=stream)
        log.event("lifecycle", level="warning", phase="drain_begin", busy=2)
        (line,) = lines(stream)
        assert "WARNING" in line
        assert "lifecycle" in line
        assert "phase=drain_begin" in line
        assert "busy=2" in line

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigurationError):
            StructuredLogger("xml")

    def test_non_serialisable_fields_are_stringified(self):
        stream = io.StringIO()
        log = StructuredLogger("json", stream=stream)
        log.event("weird", obj=object())
        record = json.loads(lines(stream)[0])
        assert "object object" in record["obj"]


class TestLevels:
    def test_below_level_is_dropped(self):
        stream = io.StringIO()
        log = StructuredLogger("json", level="warning", stream=stream)
        log.event("quiet", level="info")
        log.event("loud", level="error")
        assert len(lines(stream)) == 1
        assert log.emitted == 1

    def test_env_variable_controls_default_level(self, monkeypatch):
        monkeypatch.setenv(LOG_LEVEL_ENV, "error")
        stream = io.StringIO()
        log = StructuredLogger("json", stream=stream)
        log.event("info-event")
        log.event("error-event", level="error")
        assert len(lines(stream)) == 1

    def test_parse_level_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            parse_level("verbose")
        with pytest.raises(ConfigurationError):
            StructuredLogger("json").event("x", level="loud")


class TestRateLimit:
    def test_suppressed_events_are_counted_exactly(self):
        """emitted lines + suppressed counts == events, always."""
        clock = [0.0]
        stream = io.StringIO()
        log = StructuredLogger(
            "json", stream=stream, rate_per_s=1.0, burst=2.0,
            clock=lambda: clock[0],
        )
        for _ in range(6):  # burst of 2 emits, 4 suppressed
            log.event("request", status=200)
        assert log.emitted == 2
        assert log.suppressed == 4
        clock[0] = 3.0  # refill 3 tokens
        log.event("request", status=200)
        records = [json.loads(line) for line in lines(stream)]
        assert len(records) == 3
        # the first post-refill event carries the suppressed count
        assert records[-1]["suppressed"] == 4
        assert log.emitted + log.suppressed == 7

    def test_buckets_are_per_event_name(self):
        clock = [0.0]
        stream = io.StringIO()
        log = StructuredLogger(
            "json", stream=stream, rate_per_s=1.0, burst=1.0,
            clock=lambda: clock[0],
        )
        log.event("a")
        log.event("b")  # different name, its own bucket
        assert log.emitted == 2
        assert log.suppressed == 0

    def test_rate_zero_disables_limiting(self):
        stream = io.StringIO()
        log = StructuredLogger("json", stream=stream, rate_per_s=0.0)
        for _ in range(1000):
            log.event("flood")
        assert log.emitted == 1000
        assert log.suppressed == 0

    def test_concurrent_events_all_accounted(self):
        stream = io.StringIO()
        log = StructuredLogger("json", stream=stream, rate_per_s=50.0, burst=100.0)

        def work():
            for _ in range(200):
                log.event("request")

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert log.emitted == len(lines(stream))
        assert log.emitted + log.suppressed == 800


class TestDisabled:
    def test_null_logger_is_inert(self):
        NULL_LOGGER.event("anything", level="error")
        assert NULL_LOGGER.emitted == 0
        assert not NULL_LOGGER.enabled
