"""Video substrate: NV12 frames, mock H.264 bitstreams, decoder model,
and synthetic movie trailers (the Table II workload)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "nv12": ("pack_nv12", "extract_luma", "nv12_size"),
        "h264": ("NalType", "NalUnit", "Bitstream", "encode_video", "demux", "AccessUnit"),
        "decoder": ("HardwareDecoder", "DecodedFrame"),
        "synthesis": ("FaceAnnotation", "render_scene", "composite_face"),
        "trailer": ("TrailerSpec", "TRAILERS", "trailer_frames", "synthesize_trailer"),
        "stream": ("FramePacket", "synthetic_stream"),
    },
)
