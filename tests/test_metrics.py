"""Leakage and communication metrics."""

import numpy as np
import pytest

import oracles
from oracles import spearman
from svdlab import data
from svdlab.errors import InvalidInput
from svdlab.metrics import comm_reduction, mse, residual_cosine


class TestMse:
    def test_identical(self):
        x = np.linspace(0, 1, 64)
        assert mse(x, x) == 0.0

    def test_zeros_vs_ones(self):
        assert mse(np.zeros(16), np.ones(16)) == 1.0

    def test_constant_offset(self):
        x = np.full(25, 0.3)
        assert mse(x, x + 0.1) == pytest.approx(0.01)

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        a, b = rng.uniform(0, 1, 36), rng.uniform(0, 1, 36)
        assert mse(a, b) == mse(b, a)

    def test_rejects_images_of_different_lengths(self):
        # every metric reads its pair through metrics._pair
        with pytest.raises(InvalidInput, match="mismatched lengths"):
            mse(np.zeros(16), np.zeros(25))
        for lengths in ((16, 25, 16), (16, 16, 25)):
            with pytest.raises(InvalidInput, match="mismatched lengths"):
                residual_cosine(*(np.zeros(n) for n in lengths))


class TestResidualCosine:
    def test_matches_the_fsum_oracle(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 16, 64, 784):
            for _ in range(10):
                truth, recon, prior = rng.uniform(0, 1, (3, n))
                assert residual_cosine(truth, recon, prior) == pytest.approx(
                    oracles.residual_cosine(truth, recon, prior), rel=0, abs=1e-12)

    def test_truth_scores_one_and_the_prior_zero(self):
        rng = np.random.default_rng(6)
        truth, prior = rng.uniform(0, 1, (2, 64))
        assert residual_cosine(truth, truth, prior) == pytest.approx(1.0, rel=0, abs=1e-15)
        assert residual_cosine(truth, 2 * prior - truth, prior) == pytest.approx(-1.0, abs=1e-15)
        assert residual_cosine(truth, prior, prior) == 0.0

    def test_a_zero_residual_scores_zero_not_nan(self):
        x = np.linspace(0, 1, 16)
        assert residual_cosine(x, x, x) == 0.0
        assert residual_cosine(x, 1.0 - x, x) == 0.0  # the truth is the prior

    def test_a_flat_gray_guess_leaks_nothing(self):
        # a guess that knows neither the prior nor the target: on
        # attack_study's 20 targets against c16's public priors (-0.001)
        ds, public = data.make_synthetic(4, 30, 8, seed=11), data.make_synthetic(4, 30, 8, seed=12)
        priors = [public.x[public.y == c].mean(axis=0) for c in range(4)]
        gray = np.full(ds.x.shape[1], 0.5)
        scores = [residual_cosine(ds.x[i], gray, priors[ds.y[i]]) for i in range(20)]
        assert abs(float(np.mean(scores))) <= 0.05


class TestCommReduction:
    def test_equal_is_zero(self):
        assert comm_reduction(1000, 1000) == 0.0

    def test_truncated_packet_example(self):
        # 64x64 matrix truncated to rank 8: diag + factors + entropy
        params = 64 * 8 + 8 + 8 * 64 + 64 + 1
        assert params == 1097
        assert comm_reduction(params, 64 * 64) == pytest.approx(73.2, abs=0.1)

    def test_full_rank_packet_is_negative(self):
        p = q = k = 16
        params = p * k + k + k * q + p + 1
        assert comm_reduction(params, p * q) < 0.0

    def test_baseline_must_be_positive(self):
        with pytest.raises(InvalidInput):
            comm_reduction(10, 0)


class TestSpearman:
    def test_ties_take_average_ranks(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert spearman([1, 2, 3, 4], [1, 1, 2, 2]) == pytest.approx(2 / 5**0.5)

    @pytest.mark.parametrize("side", ["xs", "ys"])
    def test_constant_input_raises(self, side):
        # undefined, not NaN: the error names the constant argument
        xs, ys = ([1, 1, 1], [1, 2, 3]) if side == "xs" else ([1, 2, 3], [2, 2, 2])
        with pytest.raises(ValueError, match=f"constant input: {side} = "):
            spearman(xs, ys)
