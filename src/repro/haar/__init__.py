"""Haar-like features, their enumeration, packed encoding, and cascades."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "features": (
            "FeatureType",
            "Rect",
            "HaarFeature",
            "feature_rects",
            "feature_values_grid",
            "feature_values_at",
            "feature_projection",
            "memory_accesses",
        ),
        "enumeration": (
            "axis_slots",
            "enumerate_features",
            "feature_count",
            "table1_counts",
            "TABLE1_EXPECTED",
            "full_feature_pool",
            "subsampled_feature_pool",
        ),
        "cascade": ("WeakClassifier", "Stage", "Cascade"),
        "encoding": (
            "pack_geometry",
            "unpack_geometry",
            "EncodedCascade",
            "encode_cascade",
            "decode_cascade",
            "raw_cascade_bytes",
        ),
        "opencv_like": ("OPENCV_FRONTAL_STAGE_SIZES", "paper_stage_sizes"),
    },
)
