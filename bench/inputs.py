"""Seeded workload inputs and their digests.

Inputs come only from ``--seed`` and the workload name.  Stream frames
are kept as 8-bit planes (the pixels a decoder hands over) and widened
to float32 when the engine pulls them, so every pull is a distinct
buffer, a held frame included.  Serving inputs are binary PGM bodies.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.video.pnm import encode_pgm
from repro.video.stream import synthetic_stream
from repro.video.trailer import TRAILERS, trailer_frames

TRAILER = "50/50"
#: quarter-1080p, the stream workloads' frame size
STREAM_SIZE = (480, 270)
#: distinct frames rendered per stream workload; runs longer than the
#: pool cycle through it again
STREAM_POOL = 160
SERVE_POOL = 12
#: serve-mixed frame sizes; requests rotate through them so consecutive
#: requests never share a shape.  Latency is multimodal by size, and
#: with five equally common sizes p50 and p90 fall inside the third and
#: fifth modes instead of on a gap between two, where a small shift in
#: load would move them a long way.
MIXED_SIZES = ((96, 96), (160, 120), (240, 180), (320, 240), (480, 270))
MIXED_PER_SIZE = 4


def _u8(frame: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(frame), 0, 255).astype(np.uint8)


def stream_inputs(workload: str, seed: int) -> list[np.ndarray]:
    """The frame sequence of a stream workload, as uint8 planes.

    ``stream-held`` repeats each rendered trailer frame twice in a row
    (the same plane object twice: the pull makes the distinct buffers);
    ``stream-cuts`` is independent scenes, so no frame repeats.

    The held frames are one per trailer scene.  A scene's face count and
    sizes set its cascade cost, so a few long scenes would make the
    cost, and every timing, depend on the seed; one frame per scene
    averages the cost over the whole pool.  Consecutive frames of one
    scene never share a bit-equal pyramid level anyway (faces move and
    carry per-frame noise), so only the holds reach the temporal cache
    either way.
    """
    width, height = STREAM_SIZE
    if workload == "stream-held":
        scene = next(spec.scene_length for spec in TRAILERS if spec.name == TRAILER)
        shots = trailer_frames(TRAILER, width, height, STREAM_POOL, seed=seed, step=scene)
        rendered = [_u8(frame) for frame, _ in shots]
        return [frame for frame in rendered for _ in range(2)]
    if workload == "stream-cuts":
        return [
            _u8(packet.luma)
            for packet in synthetic_stream(
                width, height, STREAM_POOL, faces=2, clutter=0.5, seed=seed
            )
        ]
    raise ValueError(f"not a stream workload: {workload}")


def serve_inputs(workload: str, seed: int) -> list[bytes]:
    """The rotating request pool of a serving workload, as PGM bodies.

    Both pools are synthetic scenes with exactly two faces: a trailer
    frame's face count varies by scene, and over a pool this small that
    would make the cost depend on the seed.
    """
    if workload == "serve-small":
        return [
            encode_pgm(packet.luma)
            for packet in synthetic_stream(96, 96, SERVE_POOL, seed=seed)
        ]
    if workload == "serve-mixed":
        columns = [
            [
                encode_pgm(packet.luma)
                for packet in synthetic_stream(w, h, MIXED_PER_SIZE, seed=seed)
            ]
            for w, h in MIXED_SIZES
        ]
        return [column[i] for i in range(MIXED_PER_SIZE) for column in columns]
    raise ValueError(f"not a serving workload: {workload}")


def digest(items) -> str:
    """sha256 over a sequence of uint8 planes or byte strings, in order."""
    h = hashlib.sha256()
    for item in items:
        if isinstance(item, np.ndarray):
            h.update(f"{item.dtype.str}{item.shape}".encode())
            item = np.ascontiguousarray(item).tobytes()
        h.update(len(item).to_bytes(8, "little"))
        h.update(item)
    return h.hexdigest()
