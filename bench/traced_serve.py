"""``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python bench/traced_serve.py SPANS.json serve [repro serve flags]``

Installs the wrappers of ``bench/trace.py``, tags each micro-batch's
frames with their request trace ids, and runs ``repro.cli.main`` with
the remaining arguments.  ``repro serve`` drains and returns on SIGTERM;
the recorded spans are then written to ``SPANS.json``.
"""

from __future__ import annotations

import sys

import trace as tracing
from repro.cli import main
from repro.detect.swap import EngineSlot


def _tag_requests(recorder: tracing.Recorder) -> None:
    infer = EngineSlot.infer

    def tagged(self, lumas, traces=None):
        for luma, trace_id in zip(lumas, traces or [None] * len(lumas)):
            recorder.tag(luma, trace_id)
        return infer(self, lumas, traces)

    EngineSlot.infer = tagged


if __name__ == "__main__":
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = tracing.Recorder()
    tracing.install(recorder)
    _tag_requests(recorder)
    try:
        code = main(argv)
    finally:
        recorder.dump(spans_path)
    sys.exit(code)
