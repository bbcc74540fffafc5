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

from repro.detect.windows import BlockMapping, staging_addresses
from repro.detect.kernels import CascadeKernelResult, cascade_eval_kernel
from repro.detect.pipeline import (
    FaceDetectionPipeline,
    PipelineConfig,
    PipelineSpec,
    FrameResult,
)
from repro.detect.engine import (
    DetectionEngine,
    EngineRun,
    FrameWorkspace,
    ShardingMode,
    batch_report,
)
from repro.detect.grouping import RawDetection, group_detections, predicted_eyes
from repro.detect.display import draw_detections, display_launch
from repro.detect.detector import FaceDetector, Detection, DetectionResult
from repro.detect.soft_kernel import SoftKernelResult, soft_cascade_eval_kernel
from repro.detect.rearrangement import rearrangement_launches, default_stage_batches

__all__ = [
    "BlockMapping",
    "staging_addresses",
    "CascadeKernelResult",
    "cascade_eval_kernel",
    "FaceDetectionPipeline",
    "PipelineConfig",
    "PipelineSpec",
    "FrameResult",
    "DetectionEngine",
    "EngineRun",
    "FrameWorkspace",
    "ShardingMode",
    "batch_report",
    "RawDetection",
    "group_detections",
    "predicted_eyes",
    "draw_detections",
    "display_launch",
    "FaceDetector",
    "Detection",
    "DetectionResult",
    "SoftKernelResult",
    "soft_cascade_eval_kernel",
    "rearrangement_launches",
    "default_stage_batches",
]
