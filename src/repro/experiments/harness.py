"""The one timing harness behind the host-side path comparisons.

``repro bench throughput``, ``fastpath`` and ``devicebatch`` each
compare execution paths over the same materialised frames, the
host-side counterpart of the paper's Table II / Fig. 5 comparisons.
They share one method, kept here once (single shared-core boxes are
noisy, so it is deliberate):

* each path is a zero-argument callable that processes the whole frame
  set and returns its results, so the work is consumed inside the
  timed region; the driver warms every path before timing, so worker
  state (workspaces, pyramid plans, spawned processes, temporal
  caches) is built outside it;
* :func:`time_rounds` runs the paths in insertion order within each
  round, alternating across paths so drift hits them equally;
  ``warmup`` initial rounds are recorded but kept out of scoring;
* each path scores the **median** of its timed rounds with the IQR as
  the spread estimate (:class:`ModeTiming`) — medians are robust to the
  2x outlier rounds that best-of-N silently hides, and the artifacts
  keep every raw round so regressions in variance stay visible;
* :func:`identical` is the byte-identity check on raw detections that
  every comparison gates on.
"""

from __future__ import annotations

import statistics
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import TypeVar

from repro.detect.pipeline import FrameResult

__all__ = ["ModeTiming", "time_rounds", "detection_key", "identical"]

K = TypeVar("K")
T = TypeVar("T")


@dataclass
class ModeTiming:
    """Timed rounds of one execution path, median/IQR scored."""

    rounds: list[float] = field(default_factory=list)
    warmup_rounds: list[float] = field(default_factory=list)

    @property
    def median_s(self) -> float:
        return statistics.median(self.rounds) if self.rounds else 0.0

    @property
    def iqr_s(self) -> float:
        """Interquartile range of the timed rounds (inclusive quartiles;
        0.0 with fewer than two rounds)."""
        if len(self.rounds) < 2:
            return 0.0
        q1, _, q3 = statistics.quantiles(self.rounds, n=4, method="inclusive")
        return q3 - q1

    def fps(self, frames: int) -> float:
        median = self.median_s
        return frames / median if median > 0 else 0.0

    def to_dict(self, frames: int) -> dict:
        return {
            "rounds_s": list(self.rounds),
            "warmup_rounds_s": list(self.warmup_rounds),
            "median_s": self.median_s,
            "iqr_s": self.iqr_s,
            "fps": self.fps(frames),
        }


def time_rounds(
    paths: Mapping[K, Callable[[], T]], *, warmup: int, trials: int
) -> tuple[dict[K, ModeTiming], dict[K, T]]:
    """Time ``warmup + trials`` alternating rounds over keyed paths.

    Every round calls each path once, in insertion order.  Returns each
    path's :class:`ModeTiming` (the first ``warmup`` rounds in
    ``warmup_rounds``, the rest in ``rounds``) and each path's output
    from the last round.
    """
    timings = {name: ModeTiming() for name in paths}
    outputs: dict[K, T] = {}
    for round_index in range(warmup + trials):
        for name, run in paths.items():
            start = time.perf_counter()
            outputs[name] = run()
            elapsed = time.perf_counter() - start
            timing = timings[name]
            scored = round_index >= warmup
            (timing.rounds if scored else timing.warmup_rounds).append(elapsed)
    return timings, outputs


def detection_key(result: FrameResult) -> tuple:
    """One frame's raw detections as a comparable tuple (score included)."""
    return tuple((d.x, d.y, d.size, d.score) for d in result.raw_detections)


def identical(reference: list[FrameResult], candidate: list[FrameResult]) -> bool:
    """Same number of frames, each with byte-identical raw detections."""
    return len(reference) == len(candidate) and all(
        detection_key(r) == detection_key(c) for r, c in zip(reference, candidate)
    )
