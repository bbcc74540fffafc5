"""Kernel golden: every bilinear, integral and cascade output, byte for byte.

A seeded corpus of frames runs through the executor on the ``reference``
and ``vectorized`` backends, one frame at a time (N=1) and as one fused
device batch of three (N=3), with the fast path off.  Every plan the
workspace builds through the backend seam is wrapped in a recorder that
hashes what each kernel call returns, lane by lane: the bilinear
resamples (octaves and levels), the padded integral pairs and the
depth/margin/sigma maps.  The sha256 of each lane's call sequence per
kernel is compared with the committed ``kernel_golden.json``.

The ``fast`` policy's masked walk, ``evaluate_masked``, has its own
golden, ``masked_golden.json``: on both backends, every corpus frame
is resampled, integrated and walked from seeded active sets of three
densities, with every plan sharing one scratch arena as in a workspace,
and the depth/margin/sigma maps of each lane's walks are hashed.

The recorder wraps whatever the executor calls on a plan, so the golden
pins the kernels' bytes, not the names or signatures of the seam's
methods.  Any change that moves one pixel, one integral or one map entry
by one ulp, on either backend and at either lane count, fails here.

Regenerate (only when a kernel change is intended and explained)::

    PYTHONPATH=src python tests/backend/test_kernel_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from repro.backend import get_backend
from repro.backend.base import CascadeMaps, ScratchArena
from repro.detect.pipeline import FaceDetectionPipeline, PipelineConfig
from repro.detect.windows import BlockMapping
from repro.utils.rng import rng_for
from repro.video.synthesis import render_scene
from repro.zoo import quick_cascade

GOLDEN = Path(__file__).with_name("kernel_golden.json")
MASKED_GOLDEN = Path(__file__).with_name("masked_golden.json")
BACKENDS = ("reference", "vectorized")
LANES = (1, 3)
#: (height, width): prime by prime, odd by odd, the 24x24 minimum frame
#: (one level, one anchor) and the shape of the constant frames
SHAPES = ((61, 97), (45, 75), (24, 24), (48, 64))
CONSTANT = (48, 64)
#: active-anchor fractions of the masked walks: a few seeds, about the
#: dense fallback, and more than any dense->sparse switch keeps
DENSITIES = (0.05, 0.35, 0.9)


def corpus() -> dict[str, list[np.ndarray]]:
    """Three frames per shape: seeded scenes (the 24x24 ones cropped from
    the middle of 48x48 scenes), or constant 0, 128 and 255."""
    frames = {}
    for height, width in SHAPES:
        if (height, width) == CONSTANT:
            lanes = [np.full((height, width), v, dtype=np.uint8) for v in (0, 128, 255)]
        else:
            h, w = max(height, 48), max(width, 48)
            top, left = (h - height) // 2, (w - width) // 2
            scenes = [
                render_scene(w, h, faces=1, rng=rng_for(0, "kernel-golden", height, width, i))[0]
                for i in range(3)
            ]
            lanes = [scene[top : top + height, left : left + width] for scene in scenes]
        frames[f"{height}x{width}"] = lanes
    return frames


def _lanes(out) -> list[np.ndarray]:
    """One kernel output as per-lane 2-D arrays, whatever its leading shape."""
    return list(np.asarray(out).reshape((-1,) + np.shape(out)[-2:]))


def _outputs(kind: str, out) -> list[list[np.ndarray]]:
    """``out`` as per-lane lists of the arrays the kernel produced."""
    if kind == "cascade":
        maps = out if isinstance(out, list) else [out]
        fields = [
            [lane for m in maps for lane in _lanes(getattr(m, name))]
            for name in ("depth_map", "margin_map", "sigma_map")
        ]
        return [list(lane) for lane in zip(*fields)]
    if kind == "integral":
        return [list(pair) for pair in zip(*(_lanes(a) for a in out))]
    return [[lane] for lane in _lanes(out)]


class _Recorder:
    """A plan whose every call's output is hashed into ``log``, per lane."""

    def __init__(self, plan, kind: str, log: dict) -> None:
        self._plan, self._kind, self._log = plan, kind, log

    def __getattr__(self, name):
        attr = getattr(self._plan, name)
        if not callable(attr):
            return attr

        def call(*args, **kwargs):
            out = attr(*args, **kwargs)
            if isinstance(out, (np.ndarray, tuple, list, CascadeMaps)):
                for lane, arrays in enumerate(_outputs(self._kind, out)):
                    digest = self._log[lane, self._kind]
                    for array in arrays:
                        digest.update(f"{array.dtype.str}{array.shape}".encode())
                        digest.update(np.ascontiguousarray(array).tobytes())
            return out

        return call


def _record(monkeypatch, backend, log: dict) -> None:
    for factory, kind in (
        ("make_bilinear_plan", "bilinear"),
        ("make_integral_plan", "integral"),
        ("make_cascade_evaluator", "cascade"),
    ):
        make = getattr(backend, factory)
        monkeypatch.setattr(
            backend,
            factory,
            lambda *a, _make=make, _kind=kind, **k: _Recorder(_make(*a, **k), _kind, log),
        )


def digests(monkeypatch, cascade) -> dict[str, str]:
    """``{backend/nN/HxW/laneI/kernel: sha256}`` over the whole corpus."""
    table = {}
    for backend_name in BACKENDS:
        pipeline = FaceDetectionPipeline(
            cascade, config=PipelineConfig(backend=backend_name, fastpath="off")
        )
        for n in LANES:
            for shape, frames in corpus().items():
                logs = []
                for start in range(0, len(frames), n):
                    log = defaultdict(hashlib.sha256)
                    with monkeypatch.context() as patch:
                        _record(patch, pipeline.backend, log)
                        pipeline.make_workspace().process_batch(frames[start : start + n])
                    logs.extend(
                        {kind: log[lane, kind] for kind in ("bilinear", "integral", "cascade")}
                        for lane in range(min(n, len(frames) - start))
                    )
                for lane, kinds in enumerate(logs):
                    for kind, digest in kinds.items():
                        table[f"{backend_name}/n{n}/{shape}/lane{lane}/{kind}"] = (
                            digest.hexdigest()
                        )
    return table


def masked_digests(cascade) -> dict[str, str]:
    """``{backend/HxW/laneI/masked: sha256}`` of ``evaluate_masked``.

    Each frame is resampled to its own shape (a bilinear pass whose
    scratch shares the arena), integrated, screened with
    ``window_sigma`` and walked once per density; every other walk is
    handed the screen's sigma grid, as the fast path does.
    """
    table = {}
    for backend_name in BACKENDS:
        backend = get_backend(backend_name)
        for shape, frames in corpus().items():
            height, width = frames[0].shape
            arena = ScratchArena()
            resample = backend.make_bilinear_plan(height, width, height, width, arena=arena)
            integrals = backend.make_integral_plan(height, width, arena=arena)
            mapping = BlockMapping(level_width=width, level_height=height)
            evaluator = backend.make_cascade_evaluator(cascade, mapping, arena=arena)
            for lane, frame in enumerate(frames):
                digest = hashlib.sha256()
                for k, density in enumerate(DENSITIES):
                    image = resample.apply(frame.astype(np.float32))
                    ii, sqii = integrals.compute(image)
                    sigma = evaluator.window_sigma(ii, sqii)
                    rng = rng_for(0, "masked-golden", shape, lane, density)
                    active = rng.random(sigma.shape) < density
                    maps = evaluator.evaluate_masked(
                        ii, sqii, active, sigma=sigma if k % 2 == 0 else None
                    )
                    for array in (maps.depth_map, maps.margin_map, maps.sigma_map):
                        digest.update(f"{array.dtype.str}{array.shape}".encode())
                        digest.update(np.ascontiguousarray(array).tobytes())
                table[f"{backend_name}/{shape}/lane{lane}/masked"] = digest.hexdigest()
    return table


@pytest.fixture(scope="module")
def cascade():
    return quick_cascade(seed=0)


def test_kernel_outputs_match_the_golden(monkeypatch, cascade):
    got = digests(monkeypatch, cascade)
    want = json.loads(GOLDEN.read_text())
    assert sorted(got) == sorted(want)
    moved = sorted(key for key in want if got[key] != want[key])
    assert not moved, moved[:10]


def test_golden_is_one_set_of_bytes_per_lane():
    """Bitexact backends at every lane count produce the same bytes, so
    the golden holds one digest per (frame, kernel) under every key."""
    by_lane = defaultdict(set)
    for key, digest in json.loads(GOLDEN.read_text()).items():
        _backend, _n, shape, lane, kind = key.split("/")
        by_lane[shape, lane, kind].add(digest)
    assert len(by_lane) == len(SHAPES) * 3 * 3
    assert all(len(digests) == 1 for digests in by_lane.values())


def test_masked_walks_match_the_golden(cascade):
    got = masked_digests(cascade)
    want = json.loads(MASKED_GOLDEN.read_text())
    assert sorted(got) == sorted(want)
    moved = sorted(key for key in want if got[key] != want[key])
    assert not moved, moved[:10]
    # the masked walk is bitexact too: one set of bytes per frame
    by_frame = defaultdict(set)
    for key, digest in want.items():
        by_frame[key.split("/", 1)[1]].add(digest)
    assert len(by_frame) == len(SHAPES) * 3
    assert all(len(digests) == 1 for digests in by_frame.values())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    with pytest.MonkeyPatch.context() as patch:
        table = digests(patch, quick_cascade(seed=0))
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN}")
    masked = masked_digests(quick_cascade(seed=0))
    MASKED_GOLDEN.write_text(json.dumps(masked, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(masked)} digests to {MASKED_GOLDEN}")
