"""Small argument-validation helpers shared across the library.

These keep validation messages uniform and make precondition checks one-liners
at public API boundaries (hot inner loops do not call them).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["check_in_range", "check_shape_2d"]


def check_in_range(name: str, value: float, lo: float, hi: float) -> None:
    """Raise :class:`ConfigurationError` unless ``lo <= value <= hi``."""
    if not (lo <= value <= hi):
        raise ConfigurationError(f"{name} must be in [{lo}, {hi}], got {value!r}")


def check_shape_2d(name: str, array: np.ndarray) -> None:
    """Raise :class:`ConfigurationError` unless ``array`` is a non-empty 2-D array."""
    if not isinstance(array, np.ndarray) or array.ndim != 2 or array.size == 0:
        shape = getattr(array, "shape", None)
        raise ConfigurationError(f"{name} must be a non-empty 2-D ndarray, got shape {shape!r}")
