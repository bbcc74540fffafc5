"""Where cached artifacts live on disk.

Cascade training is the reproduction's only expensive offline step (the
paper quotes days for the real thing), so trained artifacts are cached
under ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro-facedetect``) and
runs after the first are fast.  The versioned model zoo
(:mod:`repro.zoo.store`) keeps its versions under ``zoo/`` there, and
the soft-cascade ablation caches its trained cascades beside it.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["artifact_dir"]

_ENV_VAR = "REPRO_CACHE_DIR"


def artifact_dir() -> Path:
    """The cache directory (created on first use)."""
    root = os.environ.get(_ENV_VAR)
    path = Path(root) if root else Path.home() / ".cache" / "repro-facedetect"
    path.mkdir(parents=True, exist_ok=True)
    return path
