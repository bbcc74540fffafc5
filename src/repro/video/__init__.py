"""Video substrate: NV12 frames, mock H.264 bitstreams, decoder model,
and synthetic movie trailers (the Table II workload)."""

from repro.video.nv12 import pack_nv12, extract_luma, nv12_size
from repro.video.h264 import (
    NalType,
    NalUnit,
    Bitstream,
    encode_video,
    demux,
    AccessUnit,
)
from repro.video.decoder import HardwareDecoder, DecodedFrame
from repro.video.synthesis import FaceAnnotation, render_scene, composite_face
from repro.video.trailer import (
    TrailerSpec,
    TRAILERS,
    trailer_frames,
    synthesize_trailer,
)
from repro.video.stream import FramePacket, synthetic_stream

__all__ = [
    "pack_nv12",
    "extract_luma",
    "nv12_size",
    "NalType",
    "NalUnit",
    "Bitstream",
    "encode_video",
    "demux",
    "AccessUnit",
    "HardwareDecoder",
    "DecodedFrame",
    "FaceAnnotation",
    "render_scene",
    "composite_face",
    "TrailerSpec",
    "TRAILERS",
    "trailer_frames",
    "synthesize_trailer",
    "FramePacket",
    "synthetic_stream",
]
