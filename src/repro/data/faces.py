"""Parametric frontal-face renderer.

Generates grayscale face patches whose *photometric structure* matches what
Haar cascades key on: eye sockets darker than the cheek/forehead band, a
bright nose ridge between darker flanks, a dark mouth bar, and a head oval
against hair/background.  Pose, proportions, illumination and noise are
jittered per sample so a boosted cascade has genuine intra-class variance to
generalise over (DESIGN.md substitution table: this replaces the paper's
proprietary 11 742-face training set).

All geometry is expressed in normalised face coordinates (0..1 across the
chip), so the same parameters render at any pixel size — the trailer
synthesiser uses large chips, training uses 24x24.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "FaceParams",
    "render_face",
    "render_face_chip",
    "render_training_chip",
    "face_eye_positions",
]


@dataclass(frozen=True)
class FaceParams:
    """Per-sample appearance parameters (all in normalised units)."""

    skin: float = 170.0          # base skin intensity
    bg: float = 80.0             # surrounding / hair intensity
    eye_dx: float = 0.17         # half inter-ocular distance
    eye_y: float = 0.40          # eye row
    eye_size: float = 0.055      # eye blob radius
    eye_dark: float = 95.0       # eye darkening amplitude
    brow_dark: float = 45.0      # eyebrow darkening amplitude
    mouth_y: float = 0.76        # mouth row
    mouth_dark: float = 60.0     # mouth darkening amplitude
    nose_bright: float = 22.0    # nose-ridge brightening
    shade: float = 0.0           # left-right illumination slope (-1..1)
    tilt: float = 0.0            # head tilt in radians
    noise: float = 4.0           # additive Gaussian noise sigma

    @classmethod
    def sample(cls, rng: np.random.Generator) -> "FaceParams":
        """Draw jittered parameters for one synthetic identity."""
        return cls(
            skin=float(rng.uniform(140, 210)),
            bg=float(rng.uniform(40, 120)),
            eye_dx=float(rng.uniform(0.15, 0.19)),
            eye_y=float(rng.uniform(0.37, 0.44)),
            eye_size=float(rng.uniform(0.045, 0.07)),
            eye_dark=float(rng.uniform(70, 120)),
            brow_dark=float(rng.uniform(25, 60)),
            mouth_y=float(rng.uniform(0.72, 0.80)),
            mouth_dark=float(rng.uniform(40, 85)),
            nose_bright=float(rng.uniform(10, 32)),
            shade=float(rng.uniform(-0.35, 0.35)),
            tilt=float(rng.uniform(-0.08, 0.08)),
            noise=float(rng.uniform(2.0, 7.0)),
        )


def _blob(xx: np.ndarray, yy: np.ndarray, cx: float, cy: float, sx: float, sy: float) -> np.ndarray:
    """Anisotropic Gaussian bump centred at (cx, cy)."""
    return np.exp(-(((xx - cx) / sx) ** 2 + ((yy - cy) / sy) ** 2))


def render_face_chip(size: int, params: FaceParams, rng: np.random.Generator) -> np.ndarray:
    """Render one face chip of ``size`` x ``size`` pixels (float32, 0..255)."""
    if size < 8:
        raise ConfigurationError(f"face chip must be at least 8 px, got {size}")
    coords = (np.arange(size) + 0.5) / size
    xx0, yy0 = np.meshgrid(coords, coords)
    # head tilt: rotate normalised coordinates about the chip centre
    c, s = np.cos(params.tilt), np.sin(params.tilt)
    xx = 0.5 + c * (xx0 - 0.5) + s * (yy0 - 0.5)
    yy = 0.5 - s * (xx0 - 0.5) + c * (yy0 - 0.5)

    # head oval over background/hair
    oval = _blob(xx, yy, 0.5, 0.55, 0.42, 0.52)
    head_mask = np.clip((oval - 0.35) * 4.0, 0.0, 1.0)
    img = params.bg + (params.skin - params.bg) * head_mask

    # hair band across the top of the head
    hair = _blob(xx, yy, 0.5, 0.08, 0.48, 0.22)
    img -= (params.skin - params.bg) * 0.55 * hair * head_mask

    ex_l, ex_r = 0.5 - params.eye_dx, 0.5 + params.eye_dx
    ey = params.eye_y
    # eye sockets (dark), slightly elongated horizontally
    img -= params.eye_dark * _blob(xx, yy, ex_l, ey, params.eye_size * 1.5, params.eye_size)
    img -= params.eye_dark * _blob(xx, yy, ex_r, ey, params.eye_size * 1.5, params.eye_size)
    # eyebrows: flat dark bars above the eyes
    img -= params.brow_dark * _blob(xx, yy, ex_l, ey - 0.105, params.eye_size * 2.0, 0.028)
    img -= params.brow_dark * _blob(xx, yy, ex_r, ey - 0.105, params.eye_size * 2.0, 0.028)
    # nose: bright ridge between the eyes down to the nose base, dark base
    img += params.nose_bright * _blob(xx, yy, 0.5, 0.55, 0.045, 0.16)
    img -= 0.5 * params.eye_dark * _blob(xx, yy, 0.5, 0.645, 0.075, 0.032)
    # mouth: wide dark bar
    img -= params.mouth_dark * _blob(xx, yy, 0.5, params.mouth_y, 0.15, 0.035)
    # chin/cheek highlight
    img += 10.0 * _blob(xx, yy, 0.5, 0.62, 0.22, 0.18)

    # illumination slope and sensor noise
    img *= 1.0 + params.shade * (xx0 - 0.5)
    img += rng.normal(0.0, params.noise, img.shape)
    return np.clip(img, 0.0, 255.0).astype(np.float32)


def render_face(size: int, rng: np.random.Generator) -> tuple[np.ndarray, FaceParams]:
    """Render one face with freshly sampled parameters."""
    params = FaceParams.sample(rng)
    return render_face_chip(size, params, rng), params


def render_training_chip(rng: np.random.Generator, size: int = 24) -> np.ndarray:
    """Render one ``size`` x ``size`` *training* chip through the detector's
    own degradation path.

    The detection pipeline sees faces that were (a) composited at arbitrary
    sizes, (b) resampled through the image pyramid, and (c) anchored on an
    integer grid whose nearest level is up to one pyramid step (~1.2x) off
    the true face scale.  Training chips therefore render the face large,
    jitter its scale (+-10 %) and position (+-1 px at window scale) on a
    background canvas, and downsample through the same anti-alias + bilinear
    texture-fetch path — without this train/test alignment a cascade trained
    on pristine 24 px renders rejects real pyramid windows outright.
    """
    from repro.image.filtering import antialias
    from repro.image.pyramid import downscale
    from repro.image.texture import Texture2D

    from repro.data.backgrounds import render_background

    params = FaceParams.sample(rng)
    render_size = int(rng.integers(30, 80))
    face_fraction = float(rng.uniform(0.90, 1.08))
    canvas_size = max(render_size + 2, int(round(render_size / face_fraction)))
    # textured canvas: composited faces sit on textured scenes, so the chip
    # borders outside the head oval must look like scenes do
    canvas = render_background(canvas_size, canvas_size, rng, clutter=0.3)
    slack = canvas_size - render_size
    jitter = slack / 2.0 + rng.uniform(-1.0, 1.0, 2) * max(1.0, canvas_size / 24.0)
    ox = int(np.clip(round(jitter[0]), 0, slack))
    oy = int(np.clip(round(jitter[1]), 0, slack))
    chip = render_face_chip(render_size, params, rng)
    # soft oval blend like the scene compositor, so chip borders never leak
    coords = (np.arange(render_size) + 0.5) / render_size
    xx, yy = np.meshgrid(coords, coords)
    oval = np.exp(-(((xx - 0.5) / 0.46) ** 2 + ((yy - 0.5) / 0.52) ** 2))
    alpha = np.clip((oval - 0.32) * 3.0, 0.0, 1.0).astype(np.float32)
    region = canvas[oy : oy + render_size, ox : ox + render_size]
    region[:] = alpha * chip + (1.0 - alpha) * region
    # octave-style blur: deep pyramid levels accumulate one binomial filter
    # per octave, so training must see zero, one, or two of them
    octave_filters = int(rng.choice([0, 1, 1, 2], p=[0.35, 0.3, 0.2, 0.15]))
    for _ in range(octave_filters):
        canvas = antialias(canvas, 2.0)
    filtered = antialias(canvas, canvas_size / size)
    return downscale(Texture2D(filtered), size, size)


def face_eye_positions(size: int, params: FaceParams) -> tuple[tuple[float, float], tuple[float, float]]:
    """Pixel coordinates ``((lx, ly), (rx, ry))`` of the eyes in a chip.

    Ground-truth eye annotations for the S_eyes metric (Eq. 6).  Accounts
    for the rendered tilt.
    """
    c, s = np.cos(params.tilt), np.sin(params.tilt)

    def to_pixels(nx: float, ny: float) -> tuple[float, float]:
        # inverse of the rotation applied in render_face_chip
        dx, dy = nx - 0.5, ny - 0.5
        ox = 0.5 + c * dx - s * dy
        oy = 0.5 + s * dx + c * dy
        return ox * size, oy * size

    left = to_pixels(0.5 - params.eye_dx, params.eye_y)
    right = to_pixels(0.5 + params.eye_dx, params.eye_y)
    return left, right
