"""Benchmark provenance: who produced this artifact, from what tree.

Bench trajectory points (``BENCH_*.json`` across commits) are only
comparable when each one records the commit, time and environment that
produced it; :func:`provenance` gathers that best-effort — a missing
``git`` binary or a non-repo checkout degrades to ``"unknown"`` rather
than failing the benchmark.
"""

from __future__ import annotations

import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

__all__ = ["git_sha", "provenance"]


def git_sha() -> str:
    """The HEAD commit of the tree this package runs from, or ``"unknown"``.

    ``REPRO_GIT_SHA`` (set by CI before an installed-package run)
    overrides the lookup.
    """
    import os

    override = os.environ.get("REPRO_GIT_SHA")
    if override:
        return override
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def provenance(backend: str | None = None, mode: str | None = None) -> dict:
    """Environment fingerprint embedded in benchmark artifacts.

    ``backend`` records the active compute-backend name and ``mode`` the
    engine sharding mode, so trajectory points from different backends
    or executor kinds are never compared as one series.  ``cpu_count``
    rides along because sharded speedups are only interpretable against
    the core budget that produced them.
    """
    import os

    out = {
        "git_sha": git_sha(),
        "timestamp_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "cpu_count": os.cpu_count() or 1,
    }
    if backend is not None:
        out["backend"] = backend
    if mode is not None:
        out["mode"] = mode
    return out
