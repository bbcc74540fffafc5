"""The paper's core contribution: the GPU face-detection pipeline.

* :mod:`repro.detect.windows` — the Eq. 1-4 block/window decomposition;
* :mod:`repro.detect.kernels` — the cascade evaluation kernel;
* :mod:`repro.detect.pipeline` — the Fig. 1 pipeline with serial vs
  concurrent kernel execution;
* :mod:`repro.detect.devicebatch` — the one lane-parallel executor of the
  Fig. 1 stage sequence and the per-worker :class:`FrameWorkspace`;
* :mod:`repro.detect.engine` — the batched multi-frame throughput engine;
* :mod:`repro.detect.grouping` — S_eyes-based detection merging;
* :mod:`repro.detect.display` — the display (rectangle overlay) kernel;
* :mod:`repro.detect.detector` — the high-level :class:`FaceDetector` API.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "windows": ("BlockMapping", "staging_addresses"),
        "kernels": ("CascadeKernelResult", "cascade_eval_kernel"),
        "pipeline": ("FaceDetectionPipeline", "PipelineConfig", "PipelineSpec", "FrameResult"),
        "engine": (
            "DetectionEngine",
            "EngineRun",
            "FrameWorkspace",
            "ShardingMode",
            "batch_report",
        ),
        "grouping": ("RawDetection", "group_detections", "predicted_eyes"),
        "display": ("draw_detections", "display_launch"),
        "detector": ("FaceDetector", "Detection", "DetectionResult"),
        "soft_kernel": ("SoftKernelResult", "soft_cascade_eval_kernel"),
        "rearrangement": ("rearrangement_launches", "default_stage_batches"),
    },
)
