"""Shared utilities: deterministic RNG, timers, and table formatting."""

from repro.utils.rng import derive_seed, rng_for
from repro.utils.timing import WallTimer
from repro.utils.tables import format_table
from repro.utils.validation import check_in_range, check_shape_2d

__all__ = [
    "derive_seed",
    "rng_for",
    "WallTimer",
    "format_table",
    "check_in_range",
    "check_shape_2d",
]
