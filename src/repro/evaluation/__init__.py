"""Accuracy evaluation: S metrics, Hungarian matching, TPR/FP curves."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "metrics": ("s_square", "s_eyes"),
        "hungarian": ("hungarian",),
        "matching": ("MatchResult", "match_detections", "ScoredDetection"),
        "roc": ("roc_curve", "RocCurve"),
        "datasets": ("mugshot_dataset", "background_dataset", "MugshotSample"),
    },
)
