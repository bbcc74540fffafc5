"""Anti-aliasing filter stage (Fig. 1, "Filtering").

The paper low-pass filters each frame before subsampling to avoid aliasing.
We use separable binomial kernels (the standard integer approximation of a
Gaussian); for the small radii involved the convolution is implemented with
shifted adds, which is both the fastest NumPy formulation and a direct
transliteration of the shared-memory stencil a GPU kernel would run.

:func:`antialias` is the ``reference`` implementation behind
:meth:`repro.backend.base.ComputeBackend.antialias`; alternative backends
(e.g. ``vectorized``, or a future CuPy/Torch port) may substitute their
own kernel as long as the output stays byte-identical.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.gpusim.kernel import BlockWork, KernelLaunch, LaunchConfig
from repro.gpusim.memory import coalesced_bytes
from repro.utils.validation import check_shape_2d

__all__ = ["binomial_kernel", "separable_convolve", "antialias", "filtering_launch"]


def binomial_kernel(radius: int) -> np.ndarray:
    """Normalised binomial filter of length ``2*radius + 1``.

    Radius 1 gives the classic ``[1, 2, 1] / 4`` kernel; radius 0 is the
    identity.
    """
    if radius < 0:
        raise ConfigurationError(f"radius must be non-negative, got {radius}")
    row = np.ones(1, dtype=np.float64)
    for _ in range(2 * radius):
        row = np.convolve(row, [1.0, 1.0])
    return (row / row.sum()).astype(np.float32)


#: elements of the band scratch each tap's products pass through: the
#: taps accumulate into the output a band of rows at a time, so no
#: padded copy and no full-size product is ever allocated
_BAND_ELEMS = 1 << 14


def _reflect(index: np.ndarray, length: int) -> np.ndarray:
    """``np.pad``'s ``reflect`` border as source indices: the edge sample
    is not repeated, and an axis no longer than the radius reflects
    again."""
    if length == 1:
        return np.zeros_like(index)
    period = 2 * (length - 1)
    index = index % period
    return np.where(index < length, index, period - index)


def _convolve_axis(image: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    radius = (len(kernel) - 1) // 2
    if radius == 0:
        return image * kernel[0]
    length = image.shape[axis]
    sources = [_reflect(np.arange(length) + tap - radius, length) for tap in range(len(kernel))]
    out = np.zeros_like(image, dtype=np.float32)
    height, width = image.shape
    rows = max(1, _BAND_ELEMS // width)
    band = np.empty((min(rows, height), width), dtype=np.float32)
    for top in range(0, height, rows):
        bottom = min(top + rows, height)
        scratch = band[: bottom - top]
        for weight, source in zip(kernel, sources):
            if axis == 0:
                np.take(image, source[top:bottom], axis=0, out=scratch, mode="clip")
            else:
                np.take(image[top:bottom], source, axis=1, out=scratch, mode="clip")
            # the same per-element ops as ``out += weight * tap``, from zero
            np.multiply(weight, scratch, out=scratch)
            out[top:bottom] += scratch
    return out


def separable_convolve(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Convolve ``image`` with ``kernel`` along both axes (reflect borders)."""
    check_shape_2d("image", np.asarray(image))
    img = np.asarray(image, dtype=np.float32)
    k = np.asarray(kernel, dtype=np.float32)
    if k.ndim != 1 or len(k) % 2 == 0:
        raise ConfigurationError("kernel must be 1-D with odd length")
    return _convolve_axis(_convolve_axis(img, k, 0), k, 1)


def antialias(image: np.ndarray, scale: float) -> np.ndarray:
    """Low-pass ``image`` ahead of subsampling by ``scale`` (>= 1).

    The binomial radius grows with the downscaling factor so the passband
    tracks the target Nyquist rate: scales below ~1.25 need no filtering,
    moderate scales use radius 1, aggressive ones radius 2.
    """
    if scale < 1.0:
        raise ConfigurationError(f"scale must be >= 1, got {scale}")
    if scale < 1.25:
        radius = 0
    elif scale < 2.5:
        radius = 1
    else:
        radius = 2
    if radius == 0:
        return np.asarray(image, dtype=np.float32)
    return separable_convolve(image, binomial_kernel(radius))


def filtering_launch(
    width: int, height: int, stream: int, *, radius: int = 1, tile: int = 16, tag: str = ""
) -> KernelLaunch:
    """Timing-model launch for the anti-alias filter over one level.

    A separable stencil: each thread reads its ``(2*radius + 1)``-tap
    neighbourhood through shared memory and writes one pixel, both passes
    fused into a single kernel for the cost model.
    """
    if width <= 0 or height <= 0:
        raise ConfigurationError("filter dimensions must be positive")
    if radius < 0:
        raise ConfigurationError("radius must be non-negative")
    blocks = (-(-width // tile)) * (-(-height // tile))
    threads = tile * tile
    taps = 2 * (2 * radius + 1)
    work = BlockWork.from_uniform(
        blocks,
        warp_instructions=threads / 32 * (6 + 3 * taps),
        dram_bytes_read=coalesced_bytes(threads, 4),
        dram_bytes_written=coalesced_bytes(threads, 4),
        branches=threads / 32 * 2,
        shared_bytes=2.0 * (tile + 2 * radius) * (tile + 2 * radius) * 4,
    )
    return KernelLaunch(
        name=f"filter_{width}x{height}",
        config=LaunchConfig(
            grid_blocks=blocks,
            threads_per_block=threads,
            regs_per_thread=14,
            shared_mem_per_block=(tile + 2 * radius) * (tile + 2 * radius) * 4,
        ),
        work=work,
        stream=stream,
        tag=tag or "filter",
    )
