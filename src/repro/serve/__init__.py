"""``repro.serve`` — the network-facing detection service.

The ROADMAP's north star is a system serving heavy traffic, not an
in-process library; this package is the request boundary in front of the
:class:`~repro.detect.engine.DetectionEngine`:

* :mod:`repro.serve.protocol` — a stdlib-only asyncio HTTP/1.1 codec and
  the detection wire format (binary PGM frames or JSON frame
  references, JSON detection payloads);
* :mod:`repro.serve.admission` — admission control: bounded queue,
  concurrency limit, queue-deadline budget, 429 + ``Retry-After`` load
  shedding;
* :mod:`repro.serve.batcher` — the dynamic micro-batcher coalescing
  concurrent requests into engine batches under a max-batch/max-delay
  policy;
* :mod:`repro.serve.server` — :class:`DetectionServer`: request
  lifecycle, ``/healthz`` ``/readyz`` ``/metrics`` ``/stats``
  introspection, warmup and graceful drain;
* :mod:`repro.serve.loadgen` — the async open-/closed-loop load-test
  client behind ``repro loadtest``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "admission": ("AdmissionConfig", "AdmissionController", "AdmissionTicket"),
        "batcher": ("MicroBatcher",),
        "server": ("DetectionServer", "ServerConfig"),
    },
)
