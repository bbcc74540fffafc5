"""Frame packets and a synthetic frame source for the batched detection engine.

The paper feeds the detector from the GPU's hardware H.264 decoder, frame
by frame, and keeps the pipeline busy by overlapping decode with detection.
:class:`FramePacket` is the host-side frame record the engine consumes:
the luma plane plus source metadata (ground-truth annotations for
synthetic scenes).  :func:`synthetic_stream` is a lazy packet source, so
:class:`~repro.detect.engine.DetectionEngine` runs with bounded memory —
frames are materialised only when the engine's backpressure window has
room.  The engine only reads ``.luma``; everything else rides along for
evaluation and throughput accounting.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.rng import rng_for
from repro.video.shm import SharedFrameRing, SlotTicket, attach_view
from repro.video.synthesis import FaceAnnotation, render_scene

__all__ = [
    "FramePacket",
    "SharedFramePacket",
    "synthetic_stream",
]


@dataclass
class FramePacket:
    """One frame in flight: luma plane plus per-source metadata."""

    index: int
    luma: np.ndarray
    #: ground truth for synthetic sources (empty when a source has none)
    annotations: list[FaceAnnotation] = field(default_factory=list)
    #: modelled hardware-decode latency (0 for synthetic sources)
    decode_latency_s: float = 0.0

    @property
    def shape(self) -> tuple[int, int]:
        """(height, width) of the luma plane."""
        return (int(self.luma.shape[0]), int(self.luma.shape[1]))

    def share(self, ring: SharedFrameRing) -> "SharedFramePacket | None":
        """Move the pixels into ``ring`` and return the shm hand-off form.

        The result pickles in O(metadata) instead of O(pixels) — this is
        what the process-sharded engine sends to worker processes.
        Returns ``None`` when the frame does not fit a ring slot (the
        caller falls back to pickling the packet whole).
        """
        ticket = ring.put(np.asarray(self.luma))
        if ticket is None:
            return None
        return SharedFramePacket(
            index=self.index,
            ticket=ticket,
            annotations=self.annotations,
            decode_latency_s=self.decode_latency_s,
        )


@dataclass
class SharedFramePacket:
    """A :class:`FramePacket` whose pixels live in a shared-memory ring.

    Crossing a process boundary costs only this record; the receiving
    process re-materialises the luma plane as a zero-copy view with
    :meth:`materialise`.  The creator must keep the ticket's slot alive
    (no :meth:`SharedFrameRing.release`) until every reader is done.
    """

    index: int
    ticket: SlotTicket
    annotations: list[FaceAnnotation] = field(default_factory=list)
    decode_latency_s: float = 0.0

    @property
    def shape(self) -> tuple[int, int]:
        """(height, width) of the shared luma plane."""
        return (int(self.ticket.shape[0]), int(self.ticket.shape[1]))

    @property
    def luma(self) -> np.ndarray:
        """Zero-copy view of the shared pixels (attaches on first use)."""
        return attach_view(self.ticket)

    def materialise(self) -> FramePacket:
        """The equivalent :class:`FramePacket` over the shared pixels."""
        return FramePacket(
            index=self.index,
            luma=self.luma,
            annotations=self.annotations,
            decode_latency_s=self.decode_latency_s,
        )


def _check_geometry(width: int, height: int, n_frames: int) -> None:
    if width < 48 or height < 48:
        raise ConfigurationError("stream frames must be at least 48x48")
    if n_frames <= 0:
        raise ConfigurationError("n_frames must be positive")


def synthetic_stream(
    width: int,
    height: int,
    n_frames: int,
    *,
    faces: int = 2,
    clutter: float = 0.5,
    seed: int = 0,
) -> Iterator[FramePacket]:
    """Independent synthetic scenes (the throughput-benchmark workload).

    Deterministic in ``(width, height, n_frames, faces, clutter, seed)``:
    frame ``i`` is always the same scene regardless of how many frames are
    consumed, so serial and batched runs over the same stream parameters
    see byte-identical pixels.
    """
    _check_geometry(width, height, n_frames)
    for index in range(n_frames):
        frame, annotations = render_scene(
            width,
            height,
            faces=faces,
            rng=rng_for(seed, "stream", index),
            clutter=clutter,
        )
        yield FramePacket(index=index, luma=frame, annotations=annotations)
