"""Boosted-cascade training: GentleBoost, AdaBoost, and the parallel trainer."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "dataset": ("TrainingSet", "pack_windows", "build_training_set"),
        "stumps": (
            "BinnedResponses",
            "quantize_responses",
            "fit_regression_stumps",
            "fit_classification_stumps",
            "fit_stump_exact",
        ),
        "gentleboost": ("GentleBoost",),
        "adaboost": ("AdaBoost",),
        "cascade_trainer": ("CascadeTrainer", "TrainedStageReport"),
        "parallel": ("ParallelTrainer", "IterationTiming", "simulate_platform_curve"),
        "soft_cascade": (
            "SoftCascade",
            "calibrate_soft_cascade",
            "evaluate_soft_cascade_on_windows",
        ),
    },
)
