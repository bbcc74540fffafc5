"""High-level face-detection API.

:class:`FaceDetector` wraps the Fig. 1 pipeline, detection grouping and eye
prediction into the interface a downstream user actually wants::

    detector = FaceDetector.pretrained()
    result = detector.detect(gray_image)
    for det in result.detections:
        print(det.x, det.y, det.size, det.score)

``detect_video`` runs the paper's end-to-end loop: demux the bitstream, feed
the hardware-decoder model, detect on each luma plane, and report both the
simulated GPU detection time and the decode latency so throughput studies
can reason about their overlap (Section VI-A's 70 fps claim).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.detect.grouping import RawDetection, group_detections, predicted_eyes
from repro.detect.pipeline import FaceDetectionPipeline, FrameResult, PipelineConfig
from repro.errors import ConfigurationError
from repro.gpusim.device import GTX470, DeviceSpec
from repro.gpusim.scheduler import ExecutionMode
from repro.haar.cascade import Cascade
from repro.video.decoder import DecodedFrame, HardwareDecoder
from repro.video.h264 import Bitstream, demux

__all__ = ["Detection", "DetectionResult", "FaceDetector"]


@dataclass(frozen=True)
class Detection:
    """One detected face in frame coordinates."""

    x: float
    y: float
    size: float
    score: float
    left_eye: tuple[float, float]
    right_eye: tuple[float, float]

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.size / 2.0, self.y + self.size / 2.0)


@dataclass
class DetectionResult:
    """Grouped detections plus the underlying pipeline artefacts."""

    detections: list[Detection]
    raw_count: int
    frame: FrameResult

    @property
    def detection_time_s(self) -> float:
        """Simulated GPU time for this frame (Table II quantity)."""
        return self.frame.detection_time_s


class FaceDetector:
    """End-user detector: pipeline + grouping + scoring."""

    def __init__(
        self,
        cascade: Cascade,
        *,
        device: DeviceSpec = GTX470,
        config: PipelineConfig | None = None,
        group_threshold: float = 0.5,
        min_group_score: float = 0.0,
    ) -> None:
        if group_threshold <= 0:
            raise ConfigurationError("group_threshold must be positive")
        self._pipeline = FaceDetectionPipeline(cascade, device=device, config=config)
        self._group_threshold = group_threshold
        self._min_group_score = min_group_score

    @classmethod
    def pretrained(cls, profile: str = "quick", seed: int = 0, **kwargs) -> "FaceDetector":
        """A detector with a cached trained cascade.

        Profiles: ``quick`` (12-stage GentleBoost; trains in ~a minute on
        first use, then cached), ``paper`` (25 stages / 1446 weak) and
        ``opencv`` (25 stages / 2913 weak, the baseline).
        """
        from repro import zoo

        return cls(zoo.builtin_cascade(profile, seed), **kwargs)

    @property
    def pipeline(self) -> FaceDetectionPipeline:
        return self._pipeline

    @property
    def cascade(self) -> Cascade:
        return self._pipeline.cascade

    def detect(
        self, image: np.ndarray, mode: ExecutionMode | None = None
    ) -> DetectionResult:
        """Detect faces in a grayscale image (float or uint8, (h, w))."""
        frame = self._pipeline.process_frame(np.asarray(image, dtype=np.float32), mode)
        grouped = group_detections(frame.raw_detections, self._group_threshold)
        detections = [
            self._finalize(d) for d in grouped if d.score >= self._min_group_score
        ]
        return DetectionResult(
            detections=detections,
            raw_count=len(frame.raw_detections),
            frame=frame,
        )

    def detect_video(
        self, stream: Bitstream, seed: int = 0, mode: ExecutionMode | None = None
    ) -> Iterator[tuple[DecodedFrame, DetectionResult]]:
        """Decode + detect every frame of a bitstream (decode order)."""
        decoder = HardwareDecoder(stream, seed=seed)
        for unit in demux(stream):
            decoded = decoder.decode(unit)
            yield decoded, self.detect(decoded.luma, mode)

    def _finalize(self, det: RawDetection) -> Detection:
        left, right = predicted_eyes(det)
        return Detection(
            x=det.x,
            y=det.y,
            size=det.size,
            score=det.score,
            left_eye=left,
            right_eye=right,
        )
