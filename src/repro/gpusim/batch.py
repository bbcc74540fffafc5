"""Batch-level aggregation of per-frame schedules.

The paper reports *throughput* — frames per second over whole trailers
(Table II, Fig. 5) — not single-frame latencies.  :class:`BatchReport`
folds the per-frame :class:`~repro.gpusim.scheduler.ScheduleResult`s a
batched run produces into the quantities those tables quote: simulated
fps, per-pipeline-stage busy seconds (the "integral images are ~20 % of
frame time" breakdown) and aggregate performance counters, plus the
host-side wall-clock fps the throughput benchmark measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gpusim.counters import PerfCounters
from repro.gpusim.scheduler import ScheduleResult

__all__ = ["BatchReport"]


@dataclass
class BatchReport:
    """Aggregate of one batch of frame schedules."""

    frames: int
    #: sum of per-frame simulated makespans (device-seconds of GPU time)
    simulated_seconds: float
    #: per-kernel-tag busy seconds summed over every frame (overlap not
    #: deducted — the per-stage breakdown of Fig. 5)
    stage_busy_seconds: dict[str, float] = field(default_factory=dict)
    #: device-wide counters summed over every launch of every frame
    total: PerfCounters = field(default_factory=PerfCounters)
    #: summed Fig. 7 rejection histogram (anchors by deepest stage), or
    #: ``None`` when the batch carried no kernel results
    rejections_by_depth: np.ndarray | None = None
    #: host wall-clock seconds for the whole batch, when measured
    wall_s: float | None = None

    @classmethod
    def from_schedules(
        cls,
        schedules: list[ScheduleResult],
        *,
        rejections_by_depth: np.ndarray | None = None,
        wall_s: float | None = None,
    ) -> "BatchReport":
        """Fold per-frame schedules into one report."""
        busy: dict[str, float] = {}
        total = PerfCounters()
        simulated = 0.0
        for schedule in schedules:
            simulated += schedule.makespan_s
            total.add(schedule.total)
            for trace in schedule.timeline.traces:
                busy[trace.tag] = busy.get(trace.tag, 0.0) + trace.duration_s
        return cls(
            frames=len(schedules),
            simulated_seconds=simulated,
            stage_busy_seconds=busy,
            total=total,
            rejections_by_depth=rejections_by_depth,
            wall_s=wall_s,
        )

    @property
    def simulated_fps(self) -> float:
        """Frames per simulated GPU second (the Table II quantity)."""
        if self.simulated_seconds <= 0:
            return 0.0
        return self.frames / self.simulated_seconds

    @property
    def wall_fps(self) -> float | None:
        """Frames per host wall-clock second, when a wall time was recorded."""
        if self.wall_s is None or self.wall_s <= 0:
            return None
        return self.frames / self.wall_s

    def stage_fractions(self) -> dict[str, float]:
        """Each stage's share of total busy time (sums to 1.0)."""
        denom = sum(self.stage_busy_seconds.values())
        if denom <= 0:
            return {tag: 0.0 for tag in self.stage_busy_seconds}
        return {tag: s / denom for tag, s in self.stage_busy_seconds.items()}

    def to_dict(self) -> dict:
        """JSON-serialisable summary."""
        out = {
            "frames": self.frames,
            "simulated_seconds": self.simulated_seconds,
            "simulated_fps": self.simulated_fps,
            "stage_busy_seconds": dict(self.stage_busy_seconds),
            "branch_efficiency": self.total.branch_efficiency,
            "wall_s": self.wall_s,
            "wall_fps": self.wall_fps,
        }
        if self.rejections_by_depth is not None:
            out["rejections_by_depth"] = [int(v) for v in self.rejections_by_depth]
        return out
