"""Paths, environment and small statistics shared by the benchmark scripts.

Every script in ``bench/`` runs from a checkout of the repository and
touches nothing outside it: cascades are trained into ``.bench_cache``
and traces, logs and per-run JSON land in ``.bench_out``.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CACHE = ROOT / ".bench_cache"


def program_present() -> bool:
    """True when the checkout holds the program the benchmark drives."""
    return (SRC / "repro" / "__init__.py").is_file()


def use_program() -> None:
    """Point this process, and every process it starts, at the checkout's program.

    ``REPRO_*`` overrides from the caller's shell are dropped so the
    pinned configuration is the one measured, and the cascade cache is
    redirected into the checkout.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_CACHE_DIR"] = str(CACHE)
    os.environ["PYTHONPATH"] = str(SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); ``inf`` entries sort last."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return percentile(values, 50.0)


#: the end-to-end metrics measured per window: unit and the better
#: direction.  Every run measures and prints them, but ``BENCHMARK.json``
#: does not list them: on a shared 2-vCPU host their spread over runs is
#: wider than ``DEFAULT_BOUND`` (see README.md), so they cannot gate a change.
WINDOWED = {
    "throughput": ("1/s", "higher"),
    "p50_ms": ("ms", "lower"),
    "p90_ms": ("ms", "lower"),
    "cpu_ms_per_item": ("ms", "lower"),
}
#: the regression bound ``compare.py`` applies to ``WINDOWED`` metrics
DEFAULT_BOUND = 0.10


def summarise(per_window: dict[str, list[float]]) -> dict:
    """``name -> (fast-side quartile, unit, windows)`` of each windowed metric."""
    return {
        name: (fast_side(values, WINDOWED[name][1]), WINDOWED[name][0], len(values))
        for name, values in per_window.items()
    }


def fast_side(values, better: str) -> float:
    """The quartile of per-window values on the fast side.

    The 75th percentile when higher is better, the 25th when lower is.
    A slow spell of a shared host only ever adds time, so the fast
    quartile moves only when a spell covers three quarters of a run,
    where a median moves once it covers half.
    """
    return percentile(values, 75.0 if better == "higher" else 25.0)


def windows(n: int, size: int, stride: int) -> list[range]:
    """Index ranges of ``size`` consecutive items of ``n``, ``stride`` apart."""
    size = min(size, n)
    return [range(j, j + size) for j in range(0, n - size + 1, stride)]


def rate_and_cpu(t0: float, c0: float, times: list[float], cpus: list[float],
                 window: range) -> tuple[float, float]:
    """``(items/s, CPU s per item)`` of one window of items.

    ``times`` and ``cpus`` are the wall clock and CPU seconds at which
    each item completed; ``t0``/``c0`` are their values when the first
    item started.  A window runs from the completion before its first
    item to its last completion.
    """
    first, last = window[0], window[-1]
    t_prev, c_prev = (times[first - 1], cpus[first - 1]) if first else (t0, c0)
    return len(window) / (times[last] - t_prev), (cpus[last] - c_prev) / len(window)


def latency_quantiles(latencies: list[float], window: range) -> tuple[float, float]:
    """``(p50, p90)`` of the latencies of one window of items."""
    sample = [latencies[i] for i in window]
    return percentile(sample, 50), percentile(sample, 90)


def proc_status_kb(pid: int | str, field: str) -> int:
    """A ``kB`` field (``VmRSS``, ``VmHWM``) of ``/proc/<pid>/status``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    raise KeyError(field)


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of process ``pid`` from ``/proc/<pid>/stat``."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    # the command name may hold spaces; fields resume after its ')'
    fields = stat[stat.rindex(")") + 2 :].split()
    utime, stime = int(fields[11]), int(fields[12])
    return (utime + stime) / os.sysconf("SC_CLK_TCK")
