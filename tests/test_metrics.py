"""Image quality and communication metrics."""

import numpy as np
import pytest

from oracles import spearman
from svdlab import data, metrics
from svdlab.errors import InvalidInput
from svdlab.metrics import comm_reduction, mse, psnr, ssim


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
        for metric in (mse, psnr, ssim):
            with pytest.raises(InvalidInput, match="mismatched lengths"):
                metric(np.zeros(16), np.zeros(25))


class TestPsnr:
    def test_formula_points(self):
        x = np.zeros(100)
        assert psnr(x, x + 0.1) == pytest.approx(20.0)
        assert psnr(np.zeros(16), np.ones(16)) == pytest.approx(0.0)

    def test_identical_is_infinite(self):
        x = np.linspace(0, 1, 16)
        assert psnr(x, x) == float("inf")

    def test_decreasing_in_mse(self):
        x = np.zeros(64)
        values = [psnr(x, x + eps) for eps in (0.01, 0.05, 0.2, 0.6)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestSsim:
    def test_identical_is_one(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.uniform(0, 1, 64)
            assert ssim(x, x) == pytest.approx(1.0)

    def test_negative_image_scores_low(self):
        # a high-contrast template against its negative: frozen regression
        template = data.class_template(0, 8)
        assert ssim(template, 1.0 - template) < 0.2

    def test_tiny_noise_stays_high(self):
        rng = np.random.default_rng(2)
        x = np.full(64, 0.5)
        noisy = x + rng.normal(0, 1e-4, 64)
        assert ssim(x, noisy) > 0.99

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        a, b = rng.uniform(0, 1, 64), rng.uniform(0, 1, 64)
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)

    def test_shift_sensitive(self):
        img = data.class_template(2, 8).reshape(8, 8)
        shifted = np.roll(img, 1, axis=1)
        assert ssim(img.ravel(), shifted.ravel()) < 0.999

    def test_rejects_sides_below_3(self):
        # the window is the largest odd one up to 7 that fits the side: 3 at least
        with pytest.raises(InvalidInput):
            ssim(np.zeros(4), np.zeros(4))
        assert ssim(np.zeros(9), np.zeros(9)) == 1.0

    def test_range(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b = rng.uniform(0, 1, 64), rng.uniform(0, 1, 64)
            assert -1.0 <= ssim(a, b) <= 1.0


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
