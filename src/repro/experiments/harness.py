"""Alternating-round wall-clock timing for host-side path comparisons.

Single shared-core boxes are noisy, so two paths are never timed back
to back in blocks: :func:`time_rounds` calls every path once per round,
in insertion order, so drift hits them equally.  Each path is a
zero-argument callable that processes the whole frame set and returns
its results, so the work is consumed inside the timed region; callers
warm every path first, so worker state (workspaces, pyramid plans,
temporal caches) is built outside it.  ``warmup`` initial rounds are
recorded apart from the scored ones.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import TypeVar

__all__ = ["ModeTiming", "time_rounds"]

K = TypeVar("K")
T = TypeVar("T")


@dataclass
class ModeTiming:
    """Wall-clock seconds of one path's rounds."""

    rounds: list[float] = field(default_factory=list)
    warmup_rounds: list[float] = field(default_factory=list)


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
