"""Detection grouping via the S_eyes distance (Section VI-B).

The raw pipeline emits many overlapping windows per face; the paper merges
windows whose eye-based distance ``S_eyes < 0.5`` by "progressively
averaging those with the highest overlapping".  Predicted eye locations
come from the detector's alignment convention: the canonical eye positions
of the 24x24 training chip, scaled into each detection window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import EvaluationError

__all__ = [
    "RawDetection",
    "predicted_eyes",
    "s_eyes_between",
    "group_detections",
    "CANONICAL_LEFT_EYE",
    "CANONICAL_RIGHT_EYE",
]

#: canonical eye centres in normalised window coordinates (x, y): the
#: detector's alignment convention, where grouping predicts the eyes of a
#: window (the face renderer's default eyes sit here too)
CANONICAL_LEFT_EYE = (0.33, 0.40)
CANONICAL_RIGHT_EYE = (0.67, 0.40)


@dataclass(frozen=True)
class RawDetection:
    """One detection window in frame coordinates."""

    x: float
    y: float
    size: float
    score: float

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise EvaluationError(f"detection size must be positive, got {self.size}")


def predicted_eyes(det: RawDetection) -> tuple[tuple[float, float], tuple[float, float]]:
    """Predicted (left, right) eye pixel positions of a detection window."""
    lx, ly = CANONICAL_LEFT_EYE
    rx, ry = CANONICAL_RIGHT_EYE
    return (
        (det.x + lx * det.size, det.y + ly * det.size),
        (det.x + rx * det.size, det.y + ry * det.size),
    )


def s_eyes_between(a: RawDetection, b: RawDetection) -> float:
    """Eq. 6 applied between two detections (lower = more overlapping)."""
    (alx, aly), (arx, ary) = predicted_eyes(a)
    (blx, bly), (brx, bry) = predicted_eyes(b)
    dle = float(np.hypot(alx - blx, aly - bly))
    dre = float(np.hypot(arx - brx, ary - bry))
    eye_dist_a = (CANONICAL_RIGHT_EYE[0] - CANONICAL_LEFT_EYE[0]) * a.size
    eye_dist_b = (CANONICAL_RIGHT_EYE[0] - CANONICAL_LEFT_EYE[0]) * b.size
    return (dle + dre) / min(eye_dist_a, eye_dist_b)


def _merge(a: RawDetection, b: RawDetection) -> RawDetection:
    """Score-weighted average of two detections; scores accumulate."""
    wa = max(a.score, 1e-9)
    wb = max(b.score, 1e-9)
    total = wa + wb
    return RawDetection(
        x=(a.x * wa + b.x * wb) / total,
        y=(a.y * wa + b.y * wb) / total,
        size=(a.size * wa + b.size * wb) / total,
        score=a.score + b.score,
    )


def group_detections(
    detections: list[RawDetection], threshold: float = 0.5
) -> list[RawDetection]:
    """Merge overlapping detections (S_eyes < ``threshold``).

    Two phases, both deterministic:

    1. a greedy clustering pass (strongest detections first) folds each raw
       window into the nearest existing cluster below the threshold —
       linear in the usually-large raw count;
    2. the paper's iterative pass then repeatedly averages the *most*
       overlapping pair of cluster representatives until no pair is below
       the threshold.
    """
    if threshold <= 0:
        raise EvaluationError("threshold must be positive")
    if not detections:
        return []
    ordered = sorted(detections, key=lambda d: (-d.score, d.x, d.y, d.size))
    clusters: list[RawDetection] = []
    for det in ordered:
        best_idx = -1
        best_s = threshold
        for i, c in enumerate(clusters):
            s = s_eyes_between(det, c)
            if s < best_s:
                best_s = s
                best_idx = i
        if best_idx >= 0:
            clusters[best_idx] = _merge(clusters[best_idx], det)
        else:
            clusters.append(det)

    # iterative pair-merging until no pair overlaps
    while len(clusters) > 1:
        best = (threshold, -1, -1)
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                s = s_eyes_between(clusters[i], clusters[j])
                if s < best[0]:
                    best = (s, i, j)
        if best[1] < 0:
            break
        _, i, j = best
        merged = _merge(clusters[i], clusters[j])
        clusters = [c for k, c in enumerate(clusters) if k not in (i, j)]
        clusters.append(merged)
    return sorted(clusters, key=lambda d: -d.score)
