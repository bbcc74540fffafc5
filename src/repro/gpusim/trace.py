"""Kernel execution traces and timeline rendering (Fig. 6).

The paper captures per-kernel start/end timestamps with the CUDA profiler's
``conckerneltrace`` directive to demonstrate that small-scale cascade kernels
overlap; :class:`Timeline` is the equivalent artefact here, including an
ASCII Gantt renderer for benchmark output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpusim.counters import PerfCounters

__all__ = ["KernelTrace", "Timeline"]


@dataclass(frozen=True)
class KernelTrace:
    """Timestamps and counters of one finished kernel launch."""

    name: str
    stream: int
    issue_s: float
    start_s: float
    end_s: float
    blocks: int
    counters: PerfCounters
    tag: str = ""

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def overlaps(self, other: "KernelTrace") -> bool:
        """True when the two kernels' execution intervals intersect."""
        return self.start_s < other.end_s and other.start_s < self.end_s


@dataclass
class Timeline:
    """All kernel traces of one schedule, ordered by start time."""

    traces: list[KernelTrace] = field(default_factory=list)

    def add(self, trace: KernelTrace) -> None:
        self.traces.append(trace)

    @property
    def makespan_s(self) -> float:
        """End-to-end duration from time zero to the last kernel end."""
        return max((t.end_s for t in self.traces), default=0.0)

    def overlap_pairs(self) -> int:
        """Number of kernel pairs with intersecting execution intervals."""
        ordered = sorted(self.traces, key=lambda t: t.start_s)
        count = 0
        for i, a in enumerate(ordered):
            for b in ordered[i + 1 :]:
                if b.start_s >= a.end_s:
                    break
                count += 1
        return count

    def chrome_events(
        self, *, anchor_us: float = 0.0, pid: int = 2, process_name: str = "gpusim"
    ) -> list[dict]:
        """Chrome trace-event dicts, one track (tid) per stream.

        Delegates to :func:`repro.obs.chrome.kernel_events` so the
        simulated timeline loads in ``chrome://tracing`` / Perfetto,
        optionally shifted by ``anchor_us`` onto a host timeline.
        """
        from repro.obs.chrome import kernel_events

        return kernel_events(
            self.traces, anchor_us=anchor_us, pid=pid, process_name=process_name
        )

    def by_stream(self) -> dict[int, list[KernelTrace]]:
        """Group traces per stream, preserving start order."""
        groups: dict[int, list[KernelTrace]] = {}
        for t in sorted(self.traces, key=lambda t: t.start_s):
            groups.setdefault(t.stream, []).append(t)
        return groups

    def render_gantt(self, width: int = 88) -> str:
        """Render an ASCII Gantt chart, one row per stream (Fig. 6 analogue)."""
        if not self.traces:
            return "(empty timeline)"
        span = self.makespan_s
        if span <= 0:
            return "(zero-length timeline)"
        lines = [f"timeline: {span * 1e3:.3f} ms total, {len(self.traces)} kernels"]
        for stream, traces in sorted(self.by_stream().items()):
            row = [" "] * width
            for t in traces:
                lo = int(t.start_s / span * (width - 1))
                hi = max(lo + 1, int(t.end_s / span * (width - 1)) + 1)
                for i in range(lo, min(hi, width)):
                    row[i] = "#" if row[i] == " " else "X"
            lines.append(f"stream {stream:>3} |{''.join(row)}|")
        return "\n".join(lines)
