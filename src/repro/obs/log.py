"""Structured event logging for the serving stack.

One :class:`StructuredLogger` per server, emitting one event per request
and one per lifecycle transition (warmup, drain, worker crash) as either
JSON lines (``--log-format json`` — one ``json.loads``-able object per
line, machine-greppable) or a human ``text`` format.  Every request
event carries the request's trace id, so a log line cross-references the
Chrome trace, the flight recorder, and the client's
``x-repro-trace-id`` header.

Level control: the ``REPRO_LOG`` environment variable (or an explicit
``level=``) names the minimum severity — ``debug`` | ``info`` |
``warning`` | ``error``.  Events below the level cost one dict lookup
and a comparison.

Rate limiting: a token bucket **per event name** (default 200 events/s
with a burst of 400) bounds log volume under overload — a 429 storm
cannot melt the disk.  Suppressed events are *counted*, and the next
emitted event of that name carries a ``"suppressed": N`` field, so the
accounting stays exact even when lines are dropped: emitted lines +
suppressed counts == events.  CI's exactly-once grep drives well under
the burst, so at smoke scale nothing is ever suppressed.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

from repro.errors import ConfigurationError

__all__ = ["StructuredLogger", "NULL_LOGGER", "LOG_LEVEL_ENV", "parse_level"]

LOG_LEVEL_ENV = "REPRO_LOG"

LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}

FORMATS = ("json", "text")

#: default token-bucket parameters (per event name)
DEFAULT_RATE_PER_S = 200.0
DEFAULT_BURST = 400.0


def parse_level(name: str | None) -> int:
    """Resolve a level name (or ``None`` -> ``REPRO_LOG`` -> ``info``)."""
    if name is None:
        name = os.environ.get(LOG_LEVEL_ENV) or "info"
    key = name.strip().lower()
    if key not in LEVELS:
        raise ConfigurationError(
            f"unknown log level {name!r}; choose from {sorted(LEVELS)}"
        )
    return LEVELS[key]


class _Bucket:
    """Token bucket for one event name (caller holds the logger lock)."""

    __slots__ = ("tokens", "last", "suppressed")

    def __init__(self, burst: float, now: float) -> None:
        self.tokens = burst
        self.last = now
        self.suppressed = 0


class StructuredLogger:
    """Thread-safe leveled event logger with per-event rate limiting.

    Parameters
    ----------
    fmt:
        ``"json"`` (one JSON object per line) or ``"text"``.
    level:
        Minimum severity name; ``None`` reads ``REPRO_LOG`` (default
        ``info``).
    stream:
        Output file object; ``None`` -> ``sys.stderr`` (resolved at emit
        time, so pytest's capture replacement is honoured).
    rate_per_s / burst:
        Token-bucket refill rate and capacity per event name;
        ``rate_per_s=0`` disables rate limiting.
    enabled:
        ``False`` makes every call a cheap no-op (the disabled default
        used by library code paths that only log when serving).
    """

    def __init__(
        self,
        fmt: str = "text",
        *,
        level: str | None = None,
        stream=None,
        rate_per_s: float = DEFAULT_RATE_PER_S,
        burst: float = DEFAULT_BURST,
        enabled: bool = True,
        clock=time.monotonic,
    ) -> None:
        if fmt not in FORMATS:
            raise ConfigurationError(
                f"unknown log format {fmt!r}; choose from {list(FORMATS)}"
            )
        if rate_per_s < 0:
            raise ConfigurationError(f"rate_per_s must be >= 0, got {rate_per_s}")
        self._fmt = fmt
        self._level = parse_level(level)
        self._stream = stream
        self._rate = rate_per_s
        self._burst = max(burst, 1.0)
        self._enabled = enabled
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: dict[str, _Bucket] = {}
        self._emitted = 0
        self._suppressed_total = 0

    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def fmt(self) -> str:
        return self._fmt

    @property
    def emitted(self) -> int:
        with self._lock:
            return self._emitted

    @property
    def suppressed(self) -> int:
        with self._lock:
            return self._suppressed_total

    def event(self, name: str, *, level: str = "info", **fields) -> None:
        """Emit one event (or count it as suppressed under rate limiting)."""
        if not self._enabled:
            return
        severity = LEVELS.get(level)
        if severity is None:
            raise ConfigurationError(
                f"unknown log level {level!r}; choose from {sorted(LEVELS)}"
            )
        if severity < self._level:
            return
        suppressed = 0
        with self._lock:
            if self._rate > 0:
                now = self._clock()
                bucket = self._buckets.get(name)
                if bucket is None:
                    bucket = _Bucket(self._burst, now)
                    self._buckets[name] = bucket
                bucket.tokens = min(
                    self._burst, bucket.tokens + (now - bucket.last) * self._rate
                )
                bucket.last = now
                if bucket.tokens < 1.0:
                    bucket.suppressed += 1
                    self._suppressed_total += 1
                    return
                bucket.tokens -= 1.0
                suppressed, bucket.suppressed = bucket.suppressed, 0
            self._emitted += 1
        if suppressed:
            fields["suppressed"] = suppressed
        self._write(name, level, fields)

    def _write(self, name: str, level: str, fields: dict) -> None:
        ts = time.time()
        if self._fmt == "json":
            record = {"ts": round(ts, 6), "level": level, "event": name}
            record.update(fields)
            line = json.dumps(record, separators=(", ", ": "), default=str)
        else:
            parts = [f"{ts:.3f}", level.upper().ljust(7), name]
            parts.extend(f"{key}={value}" for key, value in fields.items())
            line = " ".join(parts)
        stream = self._stream if self._stream is not None else sys.stderr
        try:
            stream.write(line + "\n")
            stream.flush()
        except ValueError:  # pragma: no cover - stream closed mid-shutdown
            pass


#: shared disabled logger for code paths that only log when serving
NULL_LOGGER = StructuredLogger(enabled=False)
