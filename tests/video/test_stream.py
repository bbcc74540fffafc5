"""Tests for the streaming frame sources feeding the batched engine."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.video.stream import synthetic_stream


class TestSyntheticStream:
    def test_deterministic_and_indexed(self):
        a = list(synthetic_stream(96, 64, 4, seed=3))
        b = list(synthetic_stream(96, 64, 4, seed=3))
        assert [p.index for p in a] == [0, 1, 2, 3]
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.luma, pb.luma)
            assert pa.shape == (64, 96)
            assert pa.decode_latency_s == 0.0

    def test_frames_differ_across_indices_and_seeds(self):
        a, b = list(synthetic_stream(96, 64, 2, seed=3))
        assert not np.array_equal(a.luma, b.luma)
        (other,) = synthetic_stream(96, 64, 1, seed=4)
        assert not np.array_equal(a.luma, other.luma)

    def test_lazy(self):
        stream = synthetic_stream(96, 64, 10**9)
        assert next(stream).index == 0  # materialising all would never return

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigurationError):
            list(synthetic_stream(16, 16, 1))
        with pytest.raises(ConfigurationError):
            list(synthetic_stream(96, 64, 0))
