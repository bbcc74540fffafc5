"""Shared utilities: deterministic RNG, timers, and table formatting."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "rng": ("derive_seed", "rng_for"),
        "timing": ("WallTimer",),
        "tables": ("format_table",),
        "validation": ("check_in_range", "check_shape_2d"),
    },
)
