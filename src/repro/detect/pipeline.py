"""The Fig. 1 face-detection pipeline.

Per decoded frame: build the image pyramid (scaling via texture fetches +
anti-alias filtering), compute per-level integral images (parallel prefix
sums + transposes), evaluate the cascade per level, and run the display
kernel.  Every pyramid level's kernel chain lives in its own CUDA stream;
:class:`~repro.gpusim.scheduler.ExecutionMode` selects the paper's serial
baseline or the concurrent-kernel-execution configuration.

The *simulated* GPU milliseconds reported in ``FrameResult.makespan_s`` are
what Table II and Fig. 5 plot; the functional results (detections, depth
maps) are identical in both modes, as the tests assert.

This module holds the configuration, the per-frame result and the
pipeline object (constant-memory cascade, resolved backend, scheduler).
The stage sequence itself is written once, in the lane-parallel executor
of :mod:`repro.detect.devicebatch`; :meth:`FaceDetectionPipeline.
process_frame` is one pass through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.backend import ComputeBackend, default_backend_name, resolve_backend
from repro.backend.base import DEVICE_ORDER, ScratchArena
from repro.backend.registry import ProbeReport
from repro.detect.fastpath import FastpathConfig, FastpathFrameStats, resolve_fastpath
from repro.detect.grouping import RawDetection
from repro.detect.kernels import CascadeKernelResult
from repro.errors import ConfigurationError
from repro.gpusim.device import GTX470, DeviceSpec
from repro.gpusim.memory import ConstantMemory
from repro.gpusim.scheduler import DeviceScheduler, ExecutionMode, ScheduleResult
from repro.haar.cascade import Cascade
from repro.haar.encoding import decode_cascade, encode_cascade
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.image.pyramid import PyramidConfig, PyramidLevel
from repro.utils.validation import check_shape_2d

__all__ = [
    "PipelineConfig",
    "PipelineSpec",
    "FrameResult",
    "FaceDetectionPipeline",
    "collect_raw_detections",
]


@dataclass(frozen=True)
class PipelineConfig:
    """Static pipeline parameters."""

    pyramid: PyramidConfig = field(default_factory=PyramidConfig)
    mode: ExecutionMode = ExecutionMode.CONCURRENT
    #: compute-backend registry name; ``None`` -> ``REPRO_BACKEND`` env var
    #: or the ``reference`` default (see :mod:`repro.backend.registry`)
    backend: str | None = None
    #: compute device kind for the backend probe: ``"cuda"``/``"mps"``/
    #: ``"cpu"`` restrict resolution to that device, ``"auto"`` walks
    #: CUDA -> MPS -> CPU, ``None`` keeps the backend's own device order.
    #: Distinct from :class:`~repro.gpusim.device.DeviceSpec` (the
    #: *simulated* GPU of the timing model) — this names the real device
    #: the numeric kernels execute on.
    device: str | None = None
    #: two-tier fast path: a :class:`~repro.detect.fastpath.FastpathConfig`,
    #: a policy name (``off`` | ``exact`` | ``fast``), or ``None`` ->
    #: ``REPRO_FASTPATH`` env var or ``off``
    fastpath: FastpathConfig | str | None = None

    def __post_init__(self) -> None:
        if self.device is not None and self.device != "auto" and self.device not in DEVICE_ORDER:
            raise ConfigurationError(
                f"unknown compute device {self.device!r}; "
                f"choose from {DEVICE_ORDER} or 'auto'"
            )


@dataclass(frozen=True)
class PipelineSpec:
    """A picklable recipe for rebuilding one pipeline in another process.

    The process-sharded engine ships this to each worker once (pool
    initializer), and the worker constructs its own
    :class:`FaceDetectionPipeline` from it — cascades are re-encoded to
    constant memory locally instead of re-pickling per frame, and the
    compute backend is re-resolved from the registry by name, so backend
    instances (which may own process-local buffers) never cross the
    boundary.  Construction is deterministic in the spec: two processes
    building the same spec evaluate byte-identical pipelines.
    """

    cascade: Cascade
    device: DeviceSpec = GTX470
    config: PipelineConfig = field(default_factory=PipelineConfig)

    def build(self, *, tracer: Tracer | None = None) -> "FaceDetectionPipeline":
        """Construct the pipeline this spec describes."""
        return FaceDetectionPipeline(
            self.cascade, self.device, self.config, tracer=tracer
        )


@dataclass
class FrameResult:
    """What one frame's pipeline pass produced.

    :meth:`FaceDetectionPipeline.process_frame` and
    :meth:`~FaceDetectionPipeline.schedule_modes` (the one-shot oracle),
    and a workspace made with ``keep_maps=True``, fill in everything:
    each level's image and each level's full
    :class:`~repro.detect.kernels.CascadeKernelResult`.  Workspace,
    engine and serving results are slim: ``raw_detections``,
    ``schedule`` and ``fastpath`` as usual, ``levels`` as geometry only
    (``image`` is ``None``), and ``kernel_results`` carrying only
    ``mapping`` and ``rejections_by_depth`` (maps and ``launch`` are
    ``None``).  That keeps a 480x270 result to tens of kilobytes, which
    process workers send back per frame.
    """

    raw_detections: list[RawDetection]
    schedule: ScheduleResult
    #: per level; maps and launch only on full results (see above)
    kernel_results: list[CascadeKernelResult]
    #: per level; images only on full results (see above)
    levels: list[PyramidLevel]
    #: what the two-tier fast path did (``None`` when the policy is off,
    #: which :meth:`FaceDetectionPipeline.process_frame` always runs with)
    fastpath: FastpathFrameStats | None = None
    #: which engine worker produced this frame (thread name or
    #: ``"pid <n>"``) — set by the engine for request attribution in the
    #: serving layer's logs; ``None`` outside the engine
    worker: str | None = None
    #: size of the fused device batch this frame rode in, ``None`` for
    #: an N=1 lane.  Frames of one batch *share* their fused
    #: :class:`~repro.gpusim.scheduler.ScheduleResult`, and aggregation
    #: (:func:`~repro.detect.engine.batch_report`, the metrics bridge)
    #: uses this marker to count the shared schedule once
    device_batch: int | None = None
    #: zoo version of the model that served this frame
    #: (``model@version``) — stamped by the serving layer's
    #: :class:`~repro.detect.swap.EngineSlot`, which reads engine and
    #: version together so the tag is exact even at a hot-swap boundary;
    #: ``None`` outside the serving path
    model_version: str | None = None

    @property
    def detection_time_s(self) -> float:
        """Simulated GPU face-detection time (the Table II quantity)."""
        return self.schedule.makespan_s

    def stage_busy_seconds(self) -> dict[str, float]:
        """Per-pipeline-stage busy time, keyed by kernel tag.

        Overlap is not deducted — this is the per-kernel-duration breakdown
        used for the "integral images are ~20% of frame time" statistic.
        """
        out: dict[str, float] = {}
        for trace in self.schedule.timeline.traces:
            out[trace.tag] = out.get(trace.tag, 0.0) + trace.duration_s
        return out

    def rejection_matrix(self, n_stages: int) -> np.ndarray:
        """(levels, n_stages + 1) anchor counts by deepest-stage (Fig. 7)."""
        return np.stack([kr.rejections_by_depth[: n_stages + 1] for kr in self.kernel_results])


def collect_raw_detections(
    levels: list[PyramidLevel],
    results: list[CascadeKernelResult],
    window: int,
) -> list[RawDetection]:
    """Accepted anchors -> frame-space windows (Section III-D sizing).

    The executor's grouping stage, applied per lane, so every path
    produces identical detection lists from identical kernel results.
    """
    raw: list[RawDetection] = []
    for level, result in zip(levels, results):
        ys, xs = result.accepted
        if ys.size == 0:
            continue
        scores = result.scores_at(ys, xs)
        size = float(window * level.scale)
        # int64 -> float64 multiply matches float(x) * scale exactly, so the
        # batched form is bit-identical to the old per-pixel loop
        fx = (xs * level.scale).tolist()
        fy = (ys * level.scale).tolist()
        raw.extend(
            RawDetection(x=x, y=y, size=size, score=s)
            for x, y, s in zip(fx, fy, scores.tolist())
        )
    return raw


class FaceDetectionPipeline:
    """Reusable pipeline bound to one cascade and one device."""

    def __init__(
        self,
        cascade: Cascade,
        device: DeviceSpec = GTX470,
        config: PipelineConfig | None = None,
        *,
        tracer: Tracer | None = None,
    ) -> None:
        self._config = config or PipelineConfig()
        self._device = device
        self._tracer = tracer if tracer is not None else NULL_TRACER
        # resolve eagerly so an unknown backend name fails at construction
        requested = self._config.backend
        if isinstance(requested, ComputeBackend):
            # an already-built instance threads straight through (no probe)
            self._backend = requested
            self._compute_device = requested.capabilities.device
            self._probe_report: ProbeReport | None = None
        else:
            # explicit name > REPRO_BACKEND > default; without a compute
            # device the probe keeps that backend's own devices (no auto walk)
            compute = self._config.device
            resolved = resolve_backend(
                prefer=requested or (default_backend_name() if compute is None else None),
                device=compute,
            )
            self._backend = resolved.backend
            self._compute_device = resolved.device
            self._probe_report = resolved.report
        # same for the fast-path policy (explicit > REPRO_FASTPATH > off)
        self._fastpath = resolve_fastpath(self._config.fastpath)
        self._scheduler = DeviceScheduler(device)
        # Upload the packed cascade to constant memory: this both enforces
        # the 64 KiB budget (Section III-C) and makes the kernel evaluate
        # exactly what the GPU would see (quantised thresholds/votes).
        encoded = encode_cascade(cascade)
        constant = ConstantMemory(device)
        constant.upload(encoded.geometry, f"{cascade.name}/geometry")
        constant.upload(encoded.thresholds, f"{cascade.name}/thresholds")
        constant.upload(encoded.lefts, f"{cascade.name}/lefts")
        constant.upload(encoded.rights, f"{cascade.name}/rights")
        constant.upload(encoded.stage_lengths, f"{cascade.name}/stage_lengths")
        constant.upload(encoded.stage_thresholds, f"{cascade.name}/stage_thresholds")
        self._constant = constant
        self._cascade = decode_cascade(encoded)
        self._source_cascade = cascade

    @property
    def cascade(self) -> Cascade:
        """The cascade as evaluated on-device (after 16-bit quantisation)."""
        return self._cascade

    @property
    def backend(self) -> ComputeBackend:
        """The resolved compute backend owning the numeric kernels."""
        return self._backend

    @property
    def compute_device(self) -> str:
        """Device kind the numeric kernels run on (``cpu``/``cuda``/``mps``)."""
        return self._compute_device

    @property
    def probe_report(self) -> ProbeReport | None:
        """How the backend was resolved (``None`` for instance passthrough)."""
        return self._probe_report

    @property
    def config(self) -> PipelineConfig:
        return self._config

    @property
    def fastpath(self) -> FastpathConfig:
        """The resolved fast-path configuration (``off`` when disabled).

        Applied by :class:`~repro.detect.devicebatch.FrameWorkspace`;
        :meth:`process_frame` (the one-shot path) always runs with the
        fast path off and stays the byte-identity oracle.
        """
        return self._fastpath

    @property
    def constant_memory(self) -> ConstantMemory:
        return self._constant

    @property
    def device(self) -> DeviceSpec:
        return self._device

    @property
    def scheduler(self) -> DeviceScheduler:
        """The device scheduler (stateless per ``run``; safe to share)."""
        return self._scheduler

    @property
    def tracer(self) -> Tracer:
        """The span tracer stages report to (:data:`NULL_TRACER` by default)."""
        return self._tracer

    def spec(self) -> PipelineSpec:
        """The picklable :class:`PipelineSpec` that rebuilds this pipeline.

        Carries the *source* cascade (pre-quantisation): ``build`` repeats
        the constant-memory encode/decode, so the rebuilt pipeline
        evaluates the identical quantised cascade.  The config is pinned
        to the *resolved* backend name and compute device, so a worker
        process re-probes exactly this candidate — and fails loudly if
        its environment cannot bring the same device up — instead of
        silently falling back to a different backend.
        """
        config = self._config
        if not isinstance(config.backend, ComputeBackend):
            config = replace(
                config, backend=self._backend.name, device=self._compute_device
            )
        return PipelineSpec(
            cascade=self._source_cascade, device=self._device, config=config
        )

    def make_workspace(
        self,
        tracer: Tracer | None = None,
        stream: str | None = "default",
        keep_maps: bool = False,
    ):
        """A reusable per-worker :class:`~repro.detect.devicebatch.FrameWorkspace`.

        The workspace caches every expensive frame-independent artefact
        (pyramid resampling plans, block mappings, launch templates with
        precomputed cost cohorts, one scratch arena) across frames.  It runs
        single frames and fused device batches through the same executor
        as this pipeline's own one-shot :meth:`process_frame`.
        ``tracer`` overrides the pipeline's own span tracer.  ``stream``
        names the video stream whose consecutive frames the fast path's
        temporal delta cache may diff; ``None`` disables temporal reuse
        (unrelated frames — e.g. serving requests — must never delta
        against each other) while the stateless proposal screen still
        applies under the ``fast`` policy.  ``keep_maps`` keeps level
        images and cascade maps on its results, which are otherwise slim
        (see :class:`FrameResult`).
        """
        from repro.detect.devicebatch import FrameWorkspace

        return FrameWorkspace(
            self,
            tracer=tracer if tracer is not None else self._tracer,
            stream=stream,
            keep_maps=keep_maps,
        )

    def process_frame(self, luma: np.ndarray, mode: ExecutionMode | None = None) -> FrameResult:
        """Run the full Fig. 1 pipeline over one luma frame."""
        mode = mode or self._config.mode
        return self.schedule_modes(luma, [mode])[mode]

    def schedule_modes(
        self, luma: np.ndarray, modes: list[ExecutionMode]
    ) -> dict[ExecutionMode, FrameResult]:
        """Run the functional pipeline once, schedule it under each mode.

        The functional output (detections, depth maps) is mode-independent;
        only the timing layer differs, so Table II's serial-vs-concurrent
        comparison reuses one functional pass.  This is the one-shot path:
        it builds fresh frame geometry per call, shares no mutable state,
        always runs with the fast path off and keeps every level image
        and cascade map on its results (the byte-identity oracle).
        """
        from repro.detect.devicebatch import _execute, _Geometry

        frame = np.asarray(luma)
        check_shape_2d("luma", frame)
        geo = _Geometry(self, self._backend, frame.shape, ScratchArena())
        lanes = _execute(
            self, geo, [frame], modes, self._tracer, FastpathConfig(), None, True
        )
        return {mode: lanes[mode][0] for mode in modes}
