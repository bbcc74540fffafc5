"""Observability: span tracing, metrics and Chrome-trace export.

The paper's evaluation (Section V) is driven entirely by profiler
artefacts — per-stream kernel timestamps, branch-efficiency counters,
per-stage frame-time breakdowns.  :mod:`repro.gpusim` reproduces those
for the *simulated* device; this package adds the complementary host
side: a lightweight span tracer wrapping every Fig. 1 pipeline stage, a
metrics registry (counters / gauges / histograms), and exporters that
put real host spans and simulated per-stream kernel spans on one
``chrome://tracing`` / Perfetto timeline.

Everything is opt-in: the default :data:`NULL_TRACER` makes every
instrumentation point a no-op with a shared, allocation-free context
manager, and the determinism tests assert that enabling tracing does
not change a single output byte.

``repro.obs.capture.run_trace`` (imported from its module, not from
this namespace) runs frames through the batched engine and returns the
trace + metrics artefacts the ``repro trace`` CLI writes.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "tracer": ("Tracer", "Span", "NULL_TRACER"),
        "context": ("TraceContext",),
        "flight": ("FlightRecorder",),
        "log": ("StructuredLogger", "NULL_LOGGER"),
        "metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
        "prom": ("PROM_CONTENT_TYPE", "render_prometheus", "sanitize_metric_name"),
        "chrome": (
            "span_events",
            "kernel_events",
            "engine_trace_events",
            "validate_chrome_events",
            "write_chrome_trace",
        ),
        "report": ("build_snapshot", "render_snapshot", "stage_busy_seconds"),
    },
)
