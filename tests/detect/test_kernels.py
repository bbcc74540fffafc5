"""Tests for the cascade evaluation kernel (functional + cost layers)."""

import numpy as np
import pytest

import repro.detect.kernels as kernels
from repro.backend.warps import warp_extremes
from repro.boosting.cascade_trainer import evaluate_cascade_on_windows
from repro.detect.kernels import cascade_eval_kernel, rejection_histogram, stage_instruction_costs
from repro.detect.windows import BlockMapping
from repro.errors import ConfigurationError
from repro.haar.cascade import Cascade, Stage, WeakClassifier
from repro.haar.enumeration import subsampled_feature_pool
from repro.utils.rng import rng_for


def toy_cascade(stage_sizes=(2, 3), thresholds=None, seed=0, stage_threshold=-10.0):
    """A permissive cascade (accepts everything unless thresholds given)."""
    rng = rng_for(seed, "toy-cascade")
    pool = subsampled_feature_pool(sum(stage_sizes) + 5, seed=seed)
    stages = []
    k = 0
    for i, size in enumerate(stage_sizes):
        cls = []
        for _ in range(size):
            cls.append(
                WeakClassifier(
                    feature=pool[k],
                    threshold=float(rng.normal(0, 5)),
                    left=float(rng.uniform(-1, 1)),
                    right=float(rng.uniform(-1, 1)),
                )
            )
            k += 1
        thr = stage_threshold if thresholds is None else thresholds[i]
        stages.append(Stage(classifiers=tuple(cls), threshold=thr))
    return Cascade(stages=tuple(stages), name="toy")


@pytest.fixture(scope="module")
def image():
    rng = rng_for(3, "kernel-image")
    return rng.uniform(0, 255, (48, 64))


class TestFunctionalLayer:
    def test_depth_map_shape(self, image):
        result = cascade_eval_kernel(image, toy_cascade(), stream=1)
        assert result.depth_map.shape == (48 - 23, 64 - 23)

    def test_permissive_cascade_accepts_all(self, image):
        cascade = toy_cascade(stage_threshold=-100.0)
        result = cascade_eval_kernel(image, cascade, stream=1)
        assert np.all(result.depth_map == cascade.num_stages)
        ys, xs = result.accepted
        assert len(ys) == result.depth_map.size

    def test_impossible_cascade_rejects_all(self, image):
        cascade = toy_cascade(stage_threshold=+100.0)
        result = cascade_eval_kernel(image, cascade, stream=1)
        assert np.all(result.depth_map == 0)
        assert result.accepted[0].size == 0

    def test_matches_window_reference(self, image):
        # The kernel's per-anchor depth must equal evaluating the cascade on
        # the extracted 24x24 window directly (the training-side oracle).
        cascade = toy_cascade(stage_sizes=(3, 4), stage_threshold=0.35)
        result = cascade_eval_kernel(image, cascade, stream=1)
        rng = np.random.default_rng(0)
        for _ in range(12):
            y = int(rng.integers(0, 48 - 23))
            x = int(rng.integers(0, 64 - 23))
            window = image[y : y + 24, x : x + 24]
            depth, _ = evaluate_cascade_on_windows(cascade, window[None])
            assert result.depth_map[y, x] == depth[0]

    def test_dense_and_sparse_paths_agree(self, image):
        # A selective stage-1 pushes later stages onto the sparse path;
        # force the dense path by monkeypatching the threshold constant.
        import repro.backend.reference as R

        cascade = toy_cascade(stage_sizes=(3, 3, 3), stage_threshold=0.3)
        sparse = cascade_eval_kernel(image, cascade, stream=1)
        old = R.SPARSE_THRESHOLD
        try:
            R.SPARSE_THRESHOLD = -1.0  # never switch to sparse
            dense = cascade_eval_kernel(image, cascade, stream=1)
        finally:
            R.SPARSE_THRESHOLD = old
        np.testing.assert_array_equal(sparse.depth_map, dense.depth_map)

    def test_rejections_histogram_sums_to_anchors(self, image):
        cascade = toy_cascade(stage_threshold=0.2)
        result = cascade_eval_kernel(image, cascade, stream=1)
        assert result.rejections_by_depth.sum() == result.depth_map.size

    def test_sigma_map_positive(self, image):
        result = cascade_eval_kernel(image, toy_cascade(), stream=1)
        assert np.all(result.sigma_map >= 1.0)

    def test_score_map_monotone_in_depth(self, image):
        cascade = toy_cascade(stage_sizes=(2, 2), stage_threshold=0.3)
        result = cascade_eval_kernel(image, cascade, stream=1)
        deep = result.depth_map == cascade.num_stages
        shallow = result.depth_map == 0
        if deep.any() and shallow.any():
            assert result.score_map[deep].min() > result.score_map[shallow].max()

    def test_rejects_1d_image(self):
        with pytest.raises(ConfigurationError):
            cascade_eval_kernel(np.zeros(100), toy_cascade(), stream=0)


class TestCostLayer:
    def test_stage_instruction_costs_scale_with_size(self):
        small = toy_cascade(stage_sizes=(2,))
        large = toy_cascade(stage_sizes=(20,))
        assert stage_instruction_costs(large)[0] > stage_instruction_costs(small)[0] * 5

    def test_launch_geometry(self, image):
        result = cascade_eval_kernel(image, toy_cascade(), stream=4)
        mapping = BlockMapping(64, 48)
        assert result.launch.config.grid_blocks == mapping.grid_blocks
        assert result.launch.stream == 4
        assert result.launch.tag == "cascade"

    def test_deeper_evaluation_costs_more(self, image):
        accept_all = cascade_eval_kernel(image, toy_cascade(stage_threshold=-100.0), stream=1)
        reject_all = cascade_eval_kernel(image, toy_cascade(stage_threshold=+100.0), stream=1)
        assert (
            accept_all.launch.work.warp_instructions.sum()
            > reject_all.launch.work.warp_instructions.sum() * 1.5
        )

    def test_uniform_outcome_has_no_divergence(self, image):
        result = cascade_eval_kernel(image, toy_cascade(stage_threshold=-100.0), stream=1)
        assert result.launch.work.divergent_branches.sum() == 0

    def test_branch_counts_positive(self, image):
        result = cascade_eval_kernel(image, toy_cascade(), stream=1)
        assert np.all(result.launch.work.branches > 0)

    def test_work_arrays_validate(self, image):
        from repro.gpusim.device import GTX470

        result = cascade_eval_kernel(image, toy_cascade(), stream=1)
        result.launch.validate(GTX470)  # should not raise

    def test_divergent_never_exceeds_branches(self, image):
        cascade = toy_cascade(stage_sizes=(3, 4, 5), stage_threshold=0.3)
        result = cascade_eval_kernel(image, cascade, stream=1)
        assert np.all(
            result.launch.work.divergent_branches <= result.launch.work.branches
        )

    @pytest.mark.parametrize(
        "block_h, block_w",
        [(16, 16), (8, 4), (32, 1), (1, 32), (2, 64), (3, 32), (12, 8), (4, 24)],
    )
    @pytest.mark.parametrize("blocks_y, blocks_x", [(3, 5), (1, 3), (2, 1)])
    def test_warp_extremes_match_regrouped_warps(self, block_h, block_w, blocks_y, blocks_x):
        """Each warp's max and min, whether a warp is whole block rows or
        not, equal those of the warps regrouped by copy, C-ordered."""
        rng = rng_for(5, "warp-extremes", block_h, block_w, blocks_y, blocks_x)
        shape = (blocks_y * block_h, blocks_x * block_w)
        lo = rng.integers(-1, 30, shape).astype(np.int32)
        hi = rng.integers(0, 30, shape).astype(np.int32)

        def regrouped(grid):
            blocks = grid.reshape(blocks_y, block_h, blocks_x, block_w).transpose(0, 2, 1, 3)
            return blocks.reshape(blocks_y * blocks_x, -1, 32)

        want_max, want_min = regrouped(lo).max(axis=2), regrouped(hi).min(axis=2)
        got_max, got_min = warp_extremes(lo, hi, block_h, block_w)
        for got, want in ((got_max, want_max), (got_min, want_min)):
            assert got.flags.c_contiguous
            assert got.shape == want.shape and np.array_equal(got, want)

    def test_rejection_histogram_counts_every_chunk(self, monkeypatch):
        depth = rng_for(6, "histogram").integers(0, 7, (61, 97)).astype(np.int32)
        monkeypatch.setattr(kernels, "_HISTOGRAM_CHUNK", 100)
        want = np.bincount(depth.ravel(), minlength=8)
        got = rejection_histogram(depth, 7)
        assert got.dtype == want.dtype and np.array_equal(got, want)
