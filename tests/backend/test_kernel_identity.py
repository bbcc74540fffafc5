"""Byte identity of the vectorized sparse kernel against ``reference``.

The vectorized kernel evaluates a sparse stage as one rectangle group,
chunk of survivors by chunk: per-classifier sums as slot adds over a
slot-major layout, then one row-wise accumulate of the classifier
outputs (see :mod:`repro.backend.compiled`).  Every case here compares
the depth, margin and sigma bytes with the reference evaluator, which
keeps its per-classifier loop.  The cases reach the kernel's edges:
chunks of one survivor and a last chunk shorter than the rest, a single
survivor (where a reordered sum would show), survivors that all die
mid-cascade, a masked walk seeded with more survivors than the
dense->sparse switch ever keeps, and a fused three-frame batch.  One
more case feeds integrals whose corner sums round, so the corner order
``((A - B) - C) + D`` itself is checked in the dense and the sparse
stages.

``quick_cascade(seed=0)`` mixes 2-, 3- and 4-rectangle features, so
every group has classifiers of several rectangle counts.
"""

from collections import Counter

import numpy as np
import pytest

import repro.backend.vectorized as vectorized
from repro.backend import get_backend
from repro.backend.base import CascadeMaps
from repro.backend.vectorized import VectorizedCascadeEvaluator
from repro.detect.windows import BlockMapping
from repro.haar.features import feature_rects
from repro.image.integral import integral_image, squared_integral_image
from repro.utils.rng import rng_for
from repro.video.stream import synthetic_stream
from repro.zoo import quick_cascade


@pytest.fixture(scope="module")
def cascade():
    cascade = quick_cascade(seed=0)
    counts = Counter(
        len(feature_rects(c.feature)) for stage in cascade.stages for c in stage.classifiers
    )
    assert counts == {2: 43, 3: 98, 4: 59}
    return cascade


@pytest.fixture(scope="module")
def scenes():
    return [
        packet.luma.astype(np.float64)
        for packet in synthetic_stream(96, 72, 3, faces=2, seed=0)
    ]


def _evaluator(backend, cascade, image):
    mapping = BlockMapping(level_width=image.shape[1], level_height=image.shape[0])
    return get_backend(backend).make_cascade_evaluator(cascade, mapping)


def _integrals(image):
    return integral_image(image), squared_integral_image(image)


def _assert_same(got, want):
    assert got.depth_map.tobytes() == want.depth_map.tobytes()
    assert got.margin_map.tobytes() == want.margin_map.tobytes()
    assert got.sigma_map.tobytes() == want.sigma_map.tobytes()


def _lanes(maps):
    """Stacked maps as one :class:`CascadeMaps` per lane."""
    return [CascadeMaps(*lane) for lane in zip(maps.depth_map, maps.margin_map, maps.sigma_map)]


def _both(cascade, image):
    ii, sqii = _integrals(image)
    return (
        _evaluator("vectorized", cascade, image).evaluate(ii, sqii),
        _evaluator("reference", cascade, image).evaluate(ii, sqii),
    )


def test_scene_levels(cascade, scenes):
    for image in scenes:
        got, want = _both(cascade, image)
        assert want.depth_map.max() == cascade.num_stages
        _assert_same(got, want)


def _record_walks(monkeypatch):
    """``(survivors, chunk size)`` of every vectorized sparse stage run."""
    walks = []
    walk = VectorizedCascadeEvaluator._sparse_stage

    def recording(self, stage_idx, *args):
        group = self._compiled.layout.stages[stage_idx]
        chunk = max(1, vectorized._GROUP_ELEMS // (4 * (group.end - group.start)))
        walks.append((args[-1].size, chunk))
        return walk(self, stage_idx, *args)

    monkeypatch.setattr(VectorizedCascadeEvaluator, "_sparse_stage", recording)
    return walks


def _masked_active(evaluator, ii, sqii):
    """Most anchors active: more than the dense->sparse switch keeps."""
    active = np.ones(evaluator.window_sigma(ii, sqii).shape, dtype=bool)
    active[::7, ::5] = False
    assert active.sum() > evaluator._nmax
    return active


@pytest.mark.parametrize("elems", [1, 997], ids=["one-survivor-chunks", "ragged-chunks"])
def test_chunk_boundaries(cascade, scenes, monkeypatch, elems):
    """Chunked survivor walks, byte for byte against ``reference``.

    ``_GROUP_ELEMS = 1`` makes every chunk one survivor; ``997`` leaves a
    last chunk shorter than the rest.  Each is run on a single frame, a
    masked walk seeded past the switch point and a fused N=3 batch.
    """
    monkeypatch.setattr(vectorized, "_GROUP_ELEMS", elems)
    walks = _record_walks(monkeypatch)
    reference = _evaluator("reference", cascade, scenes[0])
    evaluator = _evaluator("vectorized", cascade, scenes[0])
    ii, sqii = _integrals(scenes[0])
    active = _masked_active(evaluator, ii, sqii)
    iis = np.stack([integral_image(image) for image in scenes])
    sqiis = np.stack([squared_integral_image(image) for image in scenes])
    cases = {
        "frame": lambda ev: [ev.evaluate(ii, sqii)],
        "masked": lambda ev: [ev.evaluate_masked(ii, sqii, active)],
        "fused": lambda ev: _lanes(ev.evaluate(iis, sqiis)),
    }
    for name, run in cases.items():
        walks.clear()
        got = run(evaluator)
        if elems == 1:
            assert {chunk for _, chunk in walks} == {1}, name
            assert max(n for n, _ in walks) > 1, name
        else:
            assert any(n > chunk and n % chunk for n, chunk in walks), name
        want = run(reference)
        assert len(got) == len(want)
        for lane, oracle in zip(got, want):
            _assert_same(lane, oracle)


def test_one_survivor(cascade, scenes):
    """Window-sized levels around faces: one anchor, through every stage.

    A level's margin is its last stage's sum, so each truncation of the
    cascade checks one more stage sum of the lone survivor.
    """
    reference = _evaluator("reference", cascade, scenes[0])
    crops = 0
    for image in scenes:
        depth = reference.evaluate(*_integrals(image)).depth_map
        for y, x in np.argwhere(depth == cascade.num_stages)[::4]:
            crop = image[y : y + 24, x : x + 24]
            for n_stages in range(1, cascade.num_stages + 1):
                got, want = _both(cascade.truncated(n_stages), crop)
                assert want.depth_map.shape == (1, 1)
                assert want.depth_map[0, 0] == n_stages
                _assert_same(got, want)
            crops += 1
    assert crops >= 8


def test_every_anchor_dies_mid_cascade(cascade):
    image = rng_for(1, "kernel-identity-noise").uniform(0, 255, (48, 64))
    got, want = _both(cascade, image)
    assert 0 < want.depth_map.max() < cascade.num_stages
    _assert_same(got, want)


def test_masked_walk_seeded_past_nmax(cascade, scenes):
    image = scenes[1]
    ii, sqii = _integrals(image)
    evaluator = _evaluator("vectorized", cascade, image)
    active = _masked_active(evaluator, ii, sqii)
    want = _evaluator("reference", cascade, image).evaluate_masked(ii, sqii, active)
    _assert_same(evaluator.evaluate_masked(ii, sqii, active), want)
    full = _evaluator("reference", cascade, image).evaluate(ii, sqii)
    np.testing.assert_array_equal(want.depth_map[active], full.depth_map[active])


def test_fused_batch_of_three(cascade, scenes):
    iis = np.stack([integral_image(image) for image in scenes])
    sqiis = np.stack([squared_integral_image(image) for image in scenes])
    lanes = _lanes(_evaluator("vectorized", cascade, scenes[0]).evaluate(iis, sqiis))
    reference = _evaluator("reference", cascade, scenes[0])
    assert len(lanes) == 3
    for lane, ii, sqii in zip(lanes, iis, sqiis):
        _assert_same(lane, reference.evaluate(ii, sqii))


def _inexact_integrals(scenes):
    """Integral stacks of ``scenes`` whose corner sums round.

    Integrals of 8-bit pixels are exact float64 sums, so every corner
    order gives the same bits on them.  Here each lane gets ``f(y) +
    g(x)`` added: random values of either sign spread over a dozen
    binades up to 2**56.  The offsets cancel in every exact corner
    combination, but the float64 one rounds, and another corner order
    rounds differently, often enough to flip classifier votes.
    """
    rng = rng_for(0, "kernel-identity-inexact")
    lanes, h, w = scenes.shape

    def offsets(shape):
        return rng.uniform(-1, 1, shape) * 2.0 ** rng.integers(44, 57, shape)

    ii = np.stack([integral_image(image) for image in scenes])
    sqii = np.stack([squared_integral_image(image) for image in scenes])
    return ii + offsets((lanes, h + 1, 1)) + offsets((lanes, 1, w + 1)), sqii


@pytest.mark.parametrize("threshold", [-1.0, 2.0], ids=["dense", "sparse"])
def test_corner_order_on_inexact_integrals(cascade, scenes, threshold):
    """``-1.0`` walks dense until fewer than 64 anchors live, ``2.0``
    walks sparse from stage 0; both backends in both, fused and per
    frame, against the reference per frame."""
    ii, sqii = _inexact_integrals(np.stack(scenes))
    # the window sums in two corner orders: the inputs can tell them apart
    w = cascade.window
    a, b, c, d = ii[:, w:, w:], ii[:, :-w, w:], ii[:, w:, :-w], ii[:, :-w, :-w]
    assert not np.array_equal(((a - b) - c) + d, ((a - b) + d) - c)
    mapping = BlockMapping(level_width=ii.shape[-1] - 1, level_height=ii.shape[-2] - 1)
    reference, evaluator = (
        get_backend(name).make_cascade_evaluator(cascade, mapping, sparse_threshold=threshold)
        for name in ("reference", "vectorized")
    )
    fused = _lanes(evaluator.evaluate(ii, sqii))
    for lane, lane_ii, lane_sqii in zip(fused, ii, sqii):
        want = reference.evaluate(lane_ii, lane_sqii)
        assert want.depth_map.max() > 1
        _assert_same(lane, want)
        _assert_same(evaluator.evaluate(lane_ii, lane_sqii), want)


def _stacked_integrals(images):
    return (
        np.stack([integral_image(image) for image in images]),
        np.stack([squared_integral_image(image) for image in images]),
    )


def _three_walks(cascade, iis, sqiis, threshold):
    """The dense walk, ``window_sigma`` and a masked walk of both backends
    over one stack, checked lane by lane against ``reference``.

    The vectorized walks share one evaluator and arena, in that order, so
    the masked walk's survivor gathers land in dense slots the other two
    walks left dirty.
    """
    mapping = BlockMapping(level_width=iis.shape[-1] - 1, level_height=iis.shape[-2] - 1)
    reference, evaluator = (
        get_backend(name).make_cascade_evaluator(cascade, mapping, sparse_threshold=threshold)
        for name in ("reference", "vectorized")
    )
    lanes = _lanes(evaluator.evaluate(iis, sqiis))
    sigmas = evaluator.window_sigma(iis, sqiis)
    for lane, sigma, ii, sqii in zip(lanes, sigmas, iis, sqiis):
        _assert_same(lane, reference.evaluate(ii, sqii))
        assert sigma.tobytes() == reference.window_sigma(ii, sqii).tobytes()
    active = _masked_active(evaluator, iis[-1], sqiis[-1])
    _assert_same(
        evaluator.evaluate_masked(iis[-1], sqiis[-1], active),
        reference.evaluate_masked(iis[-1], sqiis[-1], active),
    )


def _row_chunking(lanes, ay, ax) -> tuple[int, int]:
    """``(chunks, rows of the last one)`` of the vectorized anchor-row
    walk over ``lanes`` stacked ``(ay, ax)`` grids."""
    rows = max(1, vectorized._GROUP_ELEMS // (lanes * ax))
    return -(-ay // rows), ay - (ay - 1) // rows * rows


@pytest.mark.parametrize("lanes", [1, 3])
def test_row_chunks_at_the_budget(cascade, lanes):
    """A 480x270 level 0 at the real element budget: four anchor-row
    chunks at N=1 and eleven at N=3, the last one partial each time.
    The walk stays dense until fewer than 64 anchors live, so every
    stage but the last few crosses every chunk boundary."""
    images = [
        packet.luma.astype(np.float64)
        for packet in synthetic_stream(480, 270, lanes, faces=2, seed=5)
    ]
    ay, ax = 270 - 23, 480 - 23
    chunks, last = _row_chunking(lanes, ay, ax)
    assert chunks == (4 if lanes == 1 else 11)
    assert last < ay // chunks
    _three_walks(cascade, *_stacked_integrals(images), threshold=-1.0)


@pytest.mark.parametrize("threshold", [-1.0, 0.25], ids=["dense", "switching"])
def test_row_chunks_on_inexact_integrals(cascade, scenes, monkeypatch, threshold):
    """The inexact-integral stacks, whose corner sums round, walked in
    ragged anchor-row chunks (13 of the 49 rows at N=1, four at N=3) by
    a walk that stays dense and by one that switches to survivor
    gathers at the backend's own switch point."""
    monkeypatch.setattr(vectorized, "_GROUP_ELEMS", 997)
    iis, sqiis = _inexact_integrals(np.stack(scenes))
    ay, ax = iis.shape[-2] - 24, iis.shape[-1] - 24
    for n in (1, 3):
        chunks, last = _row_chunking(n, ay, ax)
        assert chunks > 2 and last < ay // chunks
        _three_walks(cascade, iis[:n], sqiis[:n], threshold)
