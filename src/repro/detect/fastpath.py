"""The two-tier fast path: proposal pre-pass + temporal delta cache.

The paper's whole premise (Fig. 7) is that a boosted cascade wins by
rejecting almost all windows in its first stages; this module applies the
same idea one level up, before the dense cascade launch even happens:

* **Proposal pre-pass** — a per-tile variance screen over the window
  sigma grid (the quantity the cascade's own normalisation already
  computes).  Tiles whose windows are all flatter than ``min_sigma``
  cannot contain a face the cascade would accept, so the evaluation
  skips them entirely in ``fast`` mode and *observes* them (tiles
  pruned, proposal recall against the full evaluation) in ``exact``
  mode.

* **Temporal delta cache** — consecutive frames of a video stream are
  diffed per pyramid level; clean levels reuse the previous frame's
  cascade result wholesale, and in ``fast`` mode dirty levels re-run
  the cascade only on anchors whose 24x24 window footprint contains a
  changed pixel, carrying the cached depth/margin forward everywhere
  else.

Three policies:

``off``
    The fast path is compiled out; the workspace byte-replays
    ``process_frame`` exactly as before.
``exact``
    Reuse only on *bit-equal* pixels.  Cascade evaluation is a
    deterministic function of the level image, so reusing a result for
    identical input is provably byte-identical — this is a tier-1
    oracle mode, run in CI like ``REPRO_BACKEND=vectorized``.  (Note
    anchor-granular carry-forward would *not* qualify: the float64
    prefix sums of the integral image change globally when any upstream
    pixel changes, and corner-difference cancellation is not bit-exact.)
``fast``
    Pruning allowed: the variance screen drops flat tiles and the delta
    cache carries clean anchors forward.  Approximate by design; a
    tier-1 test holds its recall and precision against ``exact`` to
    0.99 on a held trailer stream.

Selection precedence mirrors the backend registry: an explicit
:class:`FastpathConfig` or policy name beats the ``REPRO_FASTPATH``
environment variable beats the built-in ``off`` default.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "ENV_VAR",
    "DEFAULT_POLICY",
    "TILE",
    "DENSE_FALLBACK",
    "FastpathPolicy",
    "FastpathConfig",
    "FastpathFrameStats",
    "resolve_fastpath",
    "dirty_window_mask",
    "tile_reduce_max",
    "tile_reduce_any",
    "expand_tile_mask",
]

#: environment variable consulted when no explicit policy is configured
ENV_VAR = "REPRO_FASTPATH"

DEFAULT_POLICY = "off"

#: proposal-tile side length, in anchors
TILE = 16

#: fall back to the plain dense evaluation when at least this fraction
#: of a level's anchors is active (masked gathers stop paying for
#: themselves well before the grid is half alive)
DENSE_FALLBACK = 0.35


class FastpathPolicy(Enum):
    """How aggressively the fast path may deviate from the baseline."""

    OFF = "off"
    EXACT = "exact"
    FAST = "fast"

    @classmethod
    def coerce(cls, value: "FastpathPolicy | str") -> "FastpathPolicy":
        """Accept a policy or its name; reject anything else loudly."""
        if isinstance(value, FastpathPolicy):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ConfigurationError(
                f"unknown fastpath policy {value!r}; "
                f"choose from {[p.value for p in cls]}"
            ) from None


@dataclass(frozen=True)
class FastpathConfig:
    """Static fast-path parameters (frozen and picklable, like the spec)."""

    policy: FastpathPolicy = FastpathPolicy.OFF
    #: variance screen: a tile survives when any of its windows has a
    #: pixel std dev >= this (faces are high-contrast; flat sky is not)
    min_sigma: float = 4.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "policy", FastpathPolicy.coerce(self.policy))
        if self.min_sigma < 0:
            raise ConfigurationError(f"min_sigma must be >= 0, got {self.min_sigma}")

    @property
    def enabled(self) -> bool:
        return self.policy is not FastpathPolicy.OFF


def resolve_fastpath(
    value: "FastpathConfig | FastpathPolicy | str | None" = None,
) -> FastpathConfig:
    """Resolve an explicit config/policy (or the env/default chain).

    Precedence, highest first: an explicit :class:`FastpathConfig` or
    policy name, the ``REPRO_FASTPATH`` environment variable, ``off``.
    """
    if isinstance(value, FastpathConfig):
        return value
    if value is None:
        value = os.environ.get(ENV_VAR) or DEFAULT_POLICY
    return FastpathConfig(policy=FastpathPolicy.coerce(value))


@dataclass
class FastpathFrameStats:
    """What the fast path did to one frame (bridged into the metrics)."""

    policy: str = DEFAULT_POLICY
    #: 1 when the whole frame was bit-equal to the cached predecessor
    frames_reused: int = 0
    levels: int = 0
    levels_reused: int = 0
    tiles: int = 0
    #: tiles with no changed pixel in any window footprint
    tiles_clean: int = 0
    #: tiles dropped by the variance screen (observe-only under ``exact``)
    tiles_pruned: int = 0
    anchors: int = 0
    anchors_evaluated: int = 0
    #: anchors whose cached depth/margin was carried forward
    anchors_carried: int = 0
    #: anchors skipped by the proposal screen (``fast`` only)
    anchors_pruned: int = 0
    #: accepted anchors falling inside surviving tiles / all accepted
    #: anchors — measured against the full evaluation, so only ``exact``
    #: mode (which always evaluates everything) can observe it
    proposal_kept: int = 0
    proposal_total: int = 0

    @property
    def proposal_recall(self) -> float:
        """Fraction of true accepts the proposal screen would have kept."""
        return self.proposal_kept / self.proposal_total if self.proposal_total else 1.0

    def merge(self, other: "FastpathFrameStats") -> None:
        """Accumulate another frame's counters into this one (same policy)."""
        for f in fields(self):
            if f.name == "policy":
                continue
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["proposal_recall"] = self.proposal_recall
        return out


# ---------------------------------------------------------------------------
# grid helpers (pure functions, unit-tested directly)


def dirty_window_mask(
    changed: np.ndarray, window: int, anchors_y: int, anchors_x: int
) -> np.ndarray:
    """Anchors whose ``window x window`` footprint contains a changed pixel.

    ``changed`` is the per-pixel bool diff of one pyramid level; the
    result is the ``(anchors_y, anchors_x)`` bool grid of anchors that
    must be re-evaluated.  Computed with an integral count so motion
    straddling tile boundaries dirties every window that sees it.
    """
    h, w = changed.shape
    counts = np.zeros((h + 1, w + 1), dtype=np.int64)
    np.cumsum(np.cumsum(changed, axis=0), axis=1, out=counts[1:, 1:])
    in_window = (
        counts[window:, window:]
        - counts[:-window, window:]
        - counts[window:, :-window]
        + counts[:-window, :-window]
    )
    return in_window[:anchors_y, :anchors_x] > 0


def _tile_reduce(arr: np.ndarray, tile: int, fold: np.ufunc) -> np.ndarray:
    """Per-tile ``fold`` of an anchor grid, ``(ty, tx)``: ``reduceat``
    down the rows, then across the columns, so no padded copy of the
    grid is made; a partial edge tile folds the anchors it has."""
    rows = np.arange(0, arr.shape[0], tile)
    cols = np.arange(0, arr.shape[1], tile)
    return fold.reduceat(fold.reduceat(arr, rows, axis=0), cols, axis=1)


def tile_reduce_max(values: np.ndarray, tile: int) -> np.ndarray:
    """Per-tile max of an anchor-grid float array."""
    return _tile_reduce(values, tile, np.maximum)


def tile_reduce_any(mask: np.ndarray, tile: int) -> np.ndarray:
    """Per-tile any() of an anchor-grid bool array."""
    return _tile_reduce(mask, tile, np.logical_or)


def expand_tile_mask(
    tiles: np.ndarray, tile: int, anchors_y: int, anchors_x: int
) -> np.ndarray:
    """Broadcast a per-tile bool grid back onto the anchor grid."""
    expanded = np.repeat(np.repeat(tiles, tile, axis=0), tile, axis=1)
    return expanded[:anchors_y, :anchors_x]
