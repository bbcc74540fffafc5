"""Metrics snapshots: aggregation, derived statistics and rendering.

:func:`build_snapshot` folds a :class:`~repro.obs.metrics.MetricsRegistry`
and a :class:`~repro.obs.tracer.Tracer` into one JSON-serialisable dict —
the artefact ``repro trace`` writes and ``/stats`` serves.
Derived values bridge the simulated layer: the stage-1 rejection rate
comes from the engine-accumulated Fig. 7 histogram counters, and the
max queue depth from the engine's in-flight gauge.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span, Tracer
from repro.utils.tables import format_table

__all__ = ["stage_busy_seconds", "build_snapshot", "render_snapshot", "write_snapshot"]

SNAPSHOT_SCHEMA_VERSION = 1


def stage_busy_seconds(spans: list[Span]) -> dict[str, float]:
    """Total busy seconds per span name, sorted by name.

    Nesting is *not* deducted (the ``frame`` span contains the stage
    spans), matching the per-kernel-duration convention of
    :meth:`~repro.gpusim.batch.BatchReport.stage_busy_seconds`.
    """
    busy: dict[str, float] = {}
    for span in spans:
        busy[span.name] = busy.get(span.name, 0.0) + span.dur_us / 1e6
    return dict(sorted(busy.items()))


def build_snapshot(
    metrics: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    backend: str | None = None,
    device: str | None = None,
    probe=None,
    model: dict | None = None,
) -> dict:
    """One deterministic-shaped dict with everything observed so far.

    When ``backend`` is given, the snapshot records both the active
    compute backend and the registry contents it was chosen from;
    ``device`` and ``probe`` (a :class:`~repro.backend.registry.
    ProbeReport`) additionally record the compute device kind and the
    capability-probe path that selected it.  ``model`` (the serving
    layer's model-manager info block) records which zoo model version
    produced the numbers in this snapshot.
    """
    snap: dict = {"schema_version": SNAPSHOT_SCHEMA_VERSION}
    if model is not None:
        snap["model"] = model
    if backend is not None:
        from repro.backend import available_backends

        snap["backend"] = {
            "active": backend,
            "registered": list(available_backends()),
        }
        if device is not None:
            snap["backend"]["device"] = device
        if probe is not None:
            snap["backend"]["probe"] = probe.to_dict()
    registry_dump = metrics.snapshot() if metrics is not None else {
        "counters": {}, "gauges": {}, "histograms": {}
    }
    snap.update(registry_dump)
    if tracer is not None:
        snap["stage_busy_seconds"] = stage_busy_seconds(tracer.spans())

    counters = snap["counters"]
    anchors = counters.get("cascade.anchors", 0.0)
    if anchors > 0:
        snap["stage1_rejection_rate"] = (
            counters.get("cascade.anchors_rejected_stage1", 0.0) / anchors
        )
    in_flight = snap["gauges"].get("engine.in_flight")
    if in_flight is not None:
        snap["max_queue_depth"] = int(in_flight["max"])
    fp_anchors = counters.get("fastpath.anchors", 0.0)
    if fp_anchors > 0:
        snap["fastpath_evaluated_fraction"] = (
            counters.get("fastpath.anchors_evaluated", 0.0) / fp_anchors
        )
    fp_tiles = counters.get("fastpath.tiles", 0.0)
    if fp_tiles > 0:
        snap["fastpath_tile_prune_rate"] = (
            counters.get("fastpath.tiles_pruned", 0.0) / fp_tiles
        )
    fp_accepts = counters.get("fastpath.proposal_total", 0.0)
    if fp_accepts > 0:
        snap["fastpath_proposal_recall"] = (
            counters.get("fastpath.proposal_kept", 0.0) / fp_accepts
        )
    batches = counters.get("engine.device_batches", 0.0)
    if batches > 0:
        batching = {
            "device_batches": int(batches),
            "fused_batches": int(counters.get("engine.device_batches_fused", 0.0)),
            "batched_frames": int(counters.get("engine.batched_frames", 0.0)),
            "mean_batch_size": counters.get("engine.batched_frames", 0.0) / batches,
            "transfers": int(counters.get("engine.device_transfers", 0.0)),
            "transfers_saved": int(counters.get("engine.device_transfers_saved", 0.0)),
        }
        hist = snap["histograms"].get("engine.batch_size")
        if hist is not None:
            batching["batch_size_p50"] = hist["p50"]
            batching["batch_size_p95"] = hist["p95"]
            batching["batch_size_max"] = hist["max"]
        snap["batching"] = batching
    return snap


def render_snapshot(snap: dict) -> str:
    """Plain-text rendering of a :func:`build_snapshot` dict."""
    blocks: list[str] = []

    busy = snap.get("stage_busy_seconds")
    if busy:
        total = sum(busy.values()) or 1.0
        rows = [
            [name, round(seconds * 1e3, 3), round(100.0 * seconds / total, 1)]
            for name, seconds in busy.items()
        ]
        blocks.append(
            format_table(
                ["span", "busy (ms)", "share (%)"], rows, title="host stage busy time"
            )
        )

    if snap.get("histograms"):
        rows = [
            [
                name,
                h["count"],
                round(h["p50"] * 1e3, 3),
                round(h["p95"] * 1e3, 3),
                round(h["max"] * 1e3, 3),
            ]
            for name, h in snap["histograms"].items()
        ]
        blocks.append(
            format_table(
                ["histogram", "count", "p50 (ms)", "p95 (ms)", "max (ms)"],
                rows,
                title="latency histograms",
            )
        )

    scalars: list[list] = [
        [name, value] for name, value in snap.get("counters", {}).items()
    ]
    for name, gauge in snap.get("gauges", {}).items():
        scalars.append([f"{name} (last)", gauge["value"]])
        scalars.append([f"{name} (max)", gauge["max"]])
    if "backend" in snap:
        scalars.append(["backend", snap["backend"]["active"]])
    if "stage1_rejection_rate" in snap:
        scalars.append(["stage1_rejection_rate", round(snap["stage1_rejection_rate"], 4)])
    if "max_queue_depth" in snap:
        scalars.append(["max_queue_depth", snap["max_queue_depth"]])
    for key in (
        "fastpath_evaluated_fraction",
        "fastpath_tile_prune_rate",
        "fastpath_proposal_recall",
    ):
        if key in snap:
            scalars.append([key, round(snap[key], 4)])
    batching = snap.get("batching")
    if batching:
        scalars.append(["device_batches", batching["device_batches"]])
        scalars.append(["mean_batch_size", round(batching["mean_batch_size"], 2)])
        scalars.append(["transfers_saved", batching["transfers_saved"]])
    if scalars:
        blocks.append(format_table(["metric", "value"], scalars, title="counters / gauges"))

    return "\n\n".join(blocks) if blocks else "(no metrics recorded)"


def write_snapshot(path: str | Path, snap: dict) -> Path:
    """Write the snapshot as indented JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(snap, indent=2, sort_keys=True) + "\n")
    return path
