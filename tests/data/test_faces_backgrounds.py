"""Tests for the synthetic face renderer and background generator."""

import numpy as np
import pytest

from repro.data.backgrounds import render_background, sample_patches
from repro.data.faces import (
    FaceParams,
    face_eye_positions,
    render_face,
    render_face_chip,
    render_training_chip,
)
from repro.detect.grouping import CANONICAL_LEFT_EYE, CANONICAL_RIGHT_EYE
from repro.errors import ConfigurationError
from repro.utils.rng import rng_for


class TestFaceRenderer:
    def test_chip_shape_and_range(self):
        img = render_face_chip(24, FaceParams(), rng_for(0, "f"))
        assert img.shape == (24, 24)
        assert img.dtype == np.float32
        assert img.min() >= 0 and img.max() <= 255

    def test_arbitrary_sizes(self):
        for size in (16, 48, 96):
            assert render_face_chip(size, FaceParams(), rng_for(1, "f")).shape == (size, size)

    def test_rejects_tiny(self):
        with pytest.raises(ConfigurationError):
            render_face_chip(4, FaceParams(), rng_for(0, "f"))

    def test_haar_relevant_contrast(self):
        # the photometric structure the cascade keys on: eyes darker than
        # the cheek band below them
        img = render_face_chip(48, FaceParams(), rng_for(2, "f"))
        (lx, ly), _ = face_eye_positions(48, FaceParams())
        eye = img[int(ly) - 2 : int(ly) + 3, int(lx) - 2 : int(lx) + 3].mean()
        cheek = img[int(ly) + 8 : int(ly) + 13, int(lx) - 2 : int(lx) + 3].mean()
        assert eye < cheek

    def test_sampled_params_vary(self):
        rng = rng_for(3, "f")
        a, b = FaceParams.sample(rng), FaceParams.sample(rng)
        assert a != b

    def test_render_face_returns_params(self):
        img, params = render_face(24, rng_for(4, "f"))
        assert isinstance(params, FaceParams)
        assert img.shape == (24, 24)

    def test_eye_positions_respect_tilt(self):
        straight = face_eye_positions(48, FaceParams(tilt=0.0))
        tilted = face_eye_positions(48, FaceParams(tilt=0.2))
        assert straight != tilted
        # eyes stay horizontally ordered for small tilts
        assert tilted[0][0] < tilted[1][0]

    def test_canonical_eye_constants(self):
        assert CANONICAL_LEFT_EYE[0] < CANONICAL_RIGHT_EYE[0]
        assert CANONICAL_LEFT_EYE[1] == CANONICAL_RIGHT_EYE[1]
        # the detector predicts eyes where the renderer draws them untilted
        left, right = face_eye_positions(100, FaceParams())
        assert left == pytest.approx([100 * v for v in CANONICAL_LEFT_EYE])
        assert right == pytest.approx([100 * v for v in CANONICAL_RIGHT_EYE])


class TestTrainingChips:
    def test_shape(self):
        chip = render_training_chip(rng_for(5, "t"), 24)
        assert chip.shape == (24, 24)

    def test_variance_across_chips(self):
        rng = rng_for(6, "t")
        chips = np.stack([render_training_chip(rng, 24) for _ in range(8)])
        assert np.std(chips.mean(axis=(1, 2))) > 1.0  # appearance varies

    def test_deterministic_given_stream(self):
        a = render_training_chip(rng_for(7, "t"), 24)
        b = render_training_chip(rng_for(7, "t"), 24)
        np.testing.assert_array_equal(a, b)


class TestBackgrounds:
    def test_shape_and_range(self):
        bg = render_background(64, 96, rng_for(8, "b"))
        assert bg.shape == (64, 96)
        assert bg.min() >= 0 and bg.max() <= 255

    def test_clutter_increases_structure(self):
        calm = render_background(96, 96, rng_for(9, "b"), clutter=0.0)
        busy = render_background(96, 96, rng_for(9, "b"), clutter=1.0)
        # rectangle clutter adds strong intensity steps
        def edge_energy(img):
            return float(np.abs(np.diff(img, axis=1)).mean())
        assert edge_energy(busy) >= edge_energy(calm) * 0.8

    def test_rejects_bad_clutter(self):
        with pytest.raises(ConfigurationError):
            render_background(32, 32, rng_for(0, "b"), clutter=2.0)

    def test_rejects_tiny(self):
        with pytest.raises(ConfigurationError):
            render_background(2, 2, rng_for(0, "b"))

    def test_sample_patches(self):
        bg = render_background(64, 64, rng_for(10, "b"))
        patches = sample_patches(bg, 24, 5, rng_for(11, "b"))
        assert patches.shape == (5, 24, 24)

    def test_sample_patches_bounds(self):
        bg = render_background(32, 32, rng_for(12, "b"))
        with pytest.raises(ConfigurationError):
            sample_patches(bg, 64, 2, rng_for(0, "b"))
        with pytest.raises(ConfigurationError):
            sample_patches(bg, 16, 0, rng_for(0, "b"))
