"""Image-pyramid scaling stage (Fig. 1, "Scaling").

The paper keeps the detection window fixed at the training size (24x24) and
downsamples the frame into ``n`` pyramid levels instead of scaling the Haar
features — the strategy of Fig. 2 (right) that keeps thread counts, and thus
GPU occupancy, high.  Each level is produced by bilinear ``tex2D`` fetches
from the decoded luma texture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.gpusim.kernel import BlockWork, KernelLaunch, LaunchConfig
from repro.gpusim.memory import coalesced_bytes
from repro.image.texture import Texture2D
from repro.utils.validation import check_shape_2d

__all__ = [
    "PyramidConfig",
    "PyramidLevel",
    "pyramid_scales",
    "downscale",
    "build_pyramid",
]


@dataclass(frozen=True)
class PyramidConfig:
    """Pyramid geometry parameters.

    ``scale_factor`` is the per-level downscaling ratio (the usual 1.2 of
    Viola-Jones style detectors); levels are generated until the image can no
    longer contain one ``window`` x ``window`` detection window or
    ``max_levels`` is reached.
    """

    window: int = 24
    scale_factor: float = 1.2
    max_levels: int = 32
    min_image_side: int = 24

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ConfigurationError("window must be positive")
        if self.scale_factor <= 1.0:
            raise ConfigurationError("scale_factor must exceed 1.0")
        if self.min_image_side < self.window:
            raise ConfigurationError("min_image_side cannot be below the window size")


@dataclass(frozen=True)
class PyramidLevel:
    """One downscaled level: its geometry and pixel data.

    ``image`` is ``None`` on the geometry-only levels of slim engine
    results (see :class:`~repro.detect.pipeline.FrameResult`).
    """

    index: int
    scale: float
    width: int
    height: int
    image: np.ndarray | None


def pyramid_scales(width: int, height: int, config: PyramidConfig) -> list[float]:
    """Scale factors of every pyramid level for a ``width`` x ``height`` frame."""
    if width < config.min_image_side or height < config.min_image_side:
        raise ConfigurationError(
            f"frame {width}x{height} smaller than minimum side {config.min_image_side}"
        )
    scales = []
    scale = 1.0
    for _ in range(config.max_levels):
        w = int(width / scale)
        h = int(height / scale)
        if min(w, h) < config.min_image_side:
            break
        scales.append(scale)
        scale *= config.scale_factor
    return scales


def downscale(texture: Texture2D, out_width: int, out_height: int) -> np.ndarray:
    """Resample a texture to ``out_width`` x ``out_height`` with tex2D fetches."""
    if out_width <= 0 or out_height <= 0:
        raise ConfigurationError("output dimensions must be positive")
    sx = texture.width / out_width
    sy = texture.height / out_height
    xs = (np.arange(out_width, dtype=np.float64) + 0.5) * sx
    ys = (np.arange(out_height, dtype=np.float64) + 0.5) * sy
    return texture.fetch_grid(xs, ys)


def build_pyramid(
    frame: np.ndarray,
    config: PyramidConfig | None = None,
    *,
    backend=None,
) -> list[PyramidLevel]:
    """Build all pyramid levels of ``frame`` (luma plane, 2-D array).

    Following the paper, every level is resampled *from the frame texture*,
    not from the previous level (Section III-A: "the scaling stage generates
    n resized images by subsampling the decompressed frame stored in the
    texture memory").  To bound aliasing, dyadic octave bases (anti-aliased
    half-resolution copies) stand in for the mip chain a texture unit
    provides: each level samples bilinearly from the nearest octave at or
    above its resolution, so the residual scale ratio is always below 2 and
    the accumulated blur is one binomial filter per octave — the same
    degradation the training chips are rendered through.

    ``backend`` selects the :class:`~repro.backend.base.ComputeBackend`
    whose ``antialias``/``downscale`` kernels do the resampling (a name, an
    instance, or ``None`` for the registry default).
    """
    check_shape_2d("frame", np.asarray(frame))
    from repro.backend import get_backend  # local: image.* is imported by backends

    resolved = get_backend(backend)
    config = config or PyramidConfig()
    img = np.asarray(frame, dtype=np.float32)
    scales = pyramid_scales(img.shape[1], img.shape[0], config)

    octaves = [img]
    while max(octaves[-1].shape) // 2 >= config.min_image_side:
        prev = octaves[-1]
        filtered = resolved.antialias(prev, 2.0)
        octaves.append(
            resolved.downscale(filtered, max(prev.shape[1] // 2, 1), max(prev.shape[0] // 2, 1))
        )

    levels: list[PyramidLevel] = []
    for index, scale in enumerate(scales):
        w = int(img.shape[1] / scale)
        h = int(img.shape[0] / scale)
        if index == 0:
            current = img
        else:
            octave = min(int(np.floor(np.log2(scale))), len(octaves) - 1)
            current = resolved.downscale(octaves[octave], w, h)
        levels.append(
            PyramidLevel(index=index, scale=scale, width=w, height=h, image=current)
        )
    return levels


def scaling_launch(
    out_width: int, out_height: int, stream: int, *, tile: int = 16, tag: str = ""
) -> KernelLaunch:
    """Timing-model launch for producing one pyramid level.

    One thread per output pixel in ``tile`` x ``tile`` blocks; each thread
    performs a bilinear texture fetch (4 texel reads through the texture
    cache, modelled as ~1.5 DRAM-visible bytes each after caching) and one
    coalesced global store.
    """
    blocks_x = -(-out_width // tile)
    blocks_y = -(-out_height // tile)
    grid = blocks_x * blocks_y
    threads = tile * tile
    # per thread: address math + lerp ~ 24 instructions
    instr_per_block = threads / 32 * 24
    store_bytes = coalesced_bytes(threads, 4)
    fetch_bytes = threads * 6  # texture-cache-filtered DRAM traffic
    work = BlockWork.from_uniform(
        grid,
        warp_instructions=instr_per_block,
        dram_bytes_read=fetch_bytes,
        dram_bytes_written=store_bytes,
        branches=threads / 32,
    )
    return KernelLaunch(
        name=f"scale_{out_width}x{out_height}",
        config=LaunchConfig(grid_blocks=grid, threads_per_block=threads, regs_per_thread=16),
        work=work,
        stream=stream,
        tag=tag or "scaling",
    )
