"""One scratch arena per workspace: shared buffers, no stale state.

Every plan of every level and every frame shape of a workspace takes
its scratch from one :class:`~repro.backend.base.ScratchArena`, so a
buffer last written by a 480x270 level is reinterpreted by the next
96x96 one.  Feeding one workspace interleaved shapes must still give
exactly what the one-shot oracle gives — byte for byte on ``reference``,
within :class:`~repro.backend.oracle.ToleranceSpec` on ``arrayapi`` —
under every fast-path policy.
"""

import numpy as np
import pytest

from repro.backend.base import ScratchArena
from repro.backend.oracle import ToleranceSpec
from repro.backend.reference import ReferenceCascadeEvaluator
from repro.detect.fastpath import FastpathConfig
from repro.detect.pipeline import FaceDetectionPipeline, PipelineConfig
from repro.utils.rng import rng_for
from repro.video.synthesis import render_scene
from repro.zoo import quick_cascade

#: (width, height) in feed order: large, square, odd, then large again
SHAPES = [(480, 270), (96, 96), (97, 61), (480, 270)]

POLICIES = {
    "off": "off",
    "exact": "exact",
    # no tile fails the variance screen, so ``fast`` prunes nothing and
    # only carries clean anchors forward (see ``_frames``)
    "fast": FastpathConfig(policy="fast", min_sigma=0.0),
}

#: first frame row the last frame changes
BAND = 200


class TestScratchArena:
    def test_take_returns_requested_views(self):
        arena = ScratchArena()
        grid = arena.take("a", (3, 4), np.float64)
        assert grid.shape == (3, 4) and grid.dtype == np.float64
        flags = arena.take("b", 5, bool)
        assert flags.shape == (5,) and flags.dtype == np.bool_

    def test_repeat_request_reuses_the_view(self):
        arena = ScratchArena()
        first = arena.take("a", (3, 4), np.float64)
        assert arena.take("a", (3, 4), np.float64) is first

    def test_buffers_grow_to_the_largest_request(self):
        arena = ScratchArena()
        arena.take("a", (10, 10), np.float64)
        small = arena.take("a", (2, 3), np.float64)
        assert arena.nbytes == 10 * 10 * 8
        small[...] = 7.0
        # a smaller shape reinterprets the same bytes: contents carry over
        assert np.shares_memory(small, arena.take("a", (10, 10), np.float64))
        arena.take("a", (20, 10), np.float64)
        assert arena.nbytes == 20 * 10 * 8
        arena.take("b", 16, np.int32)
        assert arena.nbytes == 20 * 10 * 8 + 16 * 4

    def test_borrowers_share_their_owners_slot(self):
        """A borrowing name takes its owner's slot, and a borrower that
        outgrows the slot takes the owner's cached view with the old
        buffer."""
        arena = ScratchArena()
        owner = arena.take("cascade.tmp", (4, 4), np.float64)
        pad = arena.take("launch.pad_lo", (4, 4), np.int32)
        assert np.shares_memory(owner, pad)
        assert set(arena._buffers) == {"cascade.tmp"}
        assert arena.nbytes == 4 * 4 * 8
        grown = arena.take("bilinear.g1", (16, 16), np.float32)
        assert arena.nbytes == 16 * 16 * 4
        again = arena.take("cascade.tmp", (4, 4), np.float64)
        assert again is not owner and np.shares_memory(again, grown)


def _frames():
    """One frame per shape; the last repeats the first with a changed band.

    The last frame adds 1 to every pixel from row ``BAND`` down, so every
    level changes in a full-width bottom band and is evaluated again.
    Under ``fast`` only the anchors whose window sees the band are dirty:
    the rest carry forward, and since no prefix sum above the band moves,
    carrying them is exact.  The dirty band outnumbers the dense->sparse
    switch point on the large levels, so masked evaluation grows the
    sparse scratch.
    """
    frames = [
        render_scene(w, h, faces=1, rng=rng_for(21, "arena", w, h))[0].astype(np.float32)
        for w, h in SHAPES[:-1]
    ]
    last = frames[0].copy()
    last[BAND:] += np.float32(1.0)
    return frames + [last]


@pytest.fixture(scope="module")
def cascade():
    return quick_cascade(seed=0)


@pytest.fixture(scope="module")
def frames():
    return _frames()


def _detections(result):
    return [(d.x, d.y, d.size, d.score) for d in result.raw_detections]


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _workspace_results(cascade, backend, policy, frames):
    pipeline = FaceDetectionPipeline(
        cascade, config=PipelineConfig(backend=backend, fastpath=policy)
    )
    workspace = pipeline.make_workspace(keep_maps=True)
    return [workspace.process_frame(frame) for frame in frames]


def _oracle_results(cascade, frames):
    oracle = FaceDetectionPipeline(
        cascade, config=PipelineConfig(backend="reference", fastpath="off")
    )
    return [oracle.process_frame(frame) for frame in frames]


@pytest.mark.parametrize("policy", list(POLICIES))
def test_reference_interleaved_shapes_byte_equal_the_oracle(
    cascade, frames, policy, monkeypatch
):
    requests = []
    grow = ReferenceCascadeEvaluator._ensure_sparse_capacity

    def recording(self, n):
        requests.append((n, self._nmax))
        return grow(self, n)

    monkeypatch.setattr(ReferenceCascadeEvaluator, "_ensure_sparse_capacity", recording)
    results = _workspace_results(cascade, "reference", POLICIES[policy], frames)
    for want, got in zip(_oracle_results(cascade, frames), results):
        assert _detections(got) == _detections(want)
        assert got.schedule.makespan_s == want.schedule.makespan_s
        assert len(got.levels) == len(want.levels)
        for level_got, level_want in zip(got.levels, want.levels):
            assert _same_bytes(level_got.image, level_want.image)
        for k_got, k_want in zip(got.kernel_results, want.kernel_results):
            for name in ("depth_map", "margin_map", "sigma_map", "rejections_by_depth"):
                assert _same_bytes(getattr(k_got, name), getattr(k_want, name)), name
    if policy == "fast":
        # masked evaluation seeded more survivors than the dense->sparse
        # switch point sizes the sparse scratch for, so the arena grew
        assert any(n > nmax for n, nmax in requests)


@pytest.mark.parametrize("policy", list(POLICIES))
def test_arrayapi_interleaved_shapes_within_tolerance(cascade, frames, policy):
    spec = ToleranceSpec()
    results = _workspace_results(cascade, "arrayapi", POLICIES[policy], frames)
    for want, got in zip(_oracle_results(cascade, frames), results):
        assert len(got.levels) == len(want.levels)
        for level_got, level_want in zip(got.levels, want.levels):
            assert np.allclose(
                level_got.image, level_want.image, atol=spec.pixels.atol, rtol=spec.pixels.rtol
            )
        for k_got, k_want in zip(got.kernel_results, want.kernel_results):
            flips = int(np.sum(k_got.depth_map != k_want.depth_map))
            assert flips <= spec.depth_mismatch_fraction * k_want.depth_map.size
            for name in ("margin_map", "sigma_map"):
                assert np.allclose(
                    getattr(k_got, name),
                    getattr(k_want, name),
                    atol=spec.maps.atol,
                    rtol=spec.maps.rtol,
                ), name
        dets_got, dets_want = _detections(got), _detections(want)
        assert len(dets_got) == len(dets_want)
        for a, b in zip(dets_got, dets_want):
            assert np.allclose(a[:3], b[:3]) and abs(a[3] - b[3]) <= spec.score_delta
