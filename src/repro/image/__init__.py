"""Image-processing substrate: texture fetches, pyramid, integral images.

Implements the first half of the paper's Fig. 1 pipeline — scaling via
bilinear texture fetches, anti-alias filtering, and integral images built
from parallel prefix sums and tiled matrix transpositions.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "texture": ("Texture2D",),
        "pyramid": (
            "PyramidConfig",
            "PyramidLevel",
            "build_pyramid",
            "pyramid_scales",
            "downscale",
            "scaling_launch",
        ),
        "filtering": ("binomial_kernel", "separable_convolve", "antialias"),
        "scan": ("inclusive_scan_rows", "blelloch_block_scan", "scan_row_launches"),
        "transpose": ("tiled_transpose", "transpose_launch"),
        "integral": (
            "integral_image",
            "squared_integral_image",
            "integral_image_sequential",
            "integral_image_gpu_path",
            "rect_sum",
            "integral_launches",
        ),
        "tilted": ("tilted_integral_image", "tilted_rect_sum", "tilted_rect_pixel_count"),
    },
)
