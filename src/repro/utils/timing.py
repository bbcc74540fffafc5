"""Wall-clock timing helpers used by the training-scalability experiments.

Simulated GPU time comes from :mod:`repro.gpusim`; this module only measures
host wall time (e.g. for the Fig. 8 GentleBoost scaling study, which runs on
the host for real).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["WallTimer"]


@dataclass
class WallTimer:
    """A context-manager stopwatch accumulating elapsed wall seconds.

    Examples
    --------
    >>> t = WallTimer()
    >>> with t:
    ...     _ = sum(range(1000))
    >>> t.elapsed >= 0.0
    True
    """

    elapsed: float = 0.0
    _start: float | None = field(default=None, repr=False)

    def __enter__(self) -> "WallTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        assert self._start is not None
        self.elapsed += time.perf_counter() - self._start
        self._start = None

    def reset(self) -> None:
        """Zero the accumulated time."""
        self.elapsed = 0.0
        self._start = None
