"""Reconstruction-quality and communication-cost metrics."""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput

SSIM_C1 = 0.01**2  # (0.01 * L)^2 with L = 1.0 for [0, 1] data
SSIM_C2 = 0.03**2


def _pair(truth, recon):
    t = np.asarray(truth, dtype=np.float64).ravel()
    r = np.asarray(recon, dtype=np.float64).ravel()
    if t.shape != r.shape:
        raise InvalidInput("image pair has mismatched lengths")
    return t, r


def mse(truth, recon) -> float:
    t, r = _pair(truth, recon)
    return float(np.mean(np.square(t - r)))


def psnr(truth, recon) -> float:
    """10 log10(1 / MSE) for [0, 1] data; infinite for identical images."""
    err = mse(truth, recon)
    if err == 0.0:
        return float("inf")
    return float(10.0 * np.log10(1.0 / err))


def ssim(truth, recon) -> float:
    """Mean local structural similarity with a uniform (box) window, the
    largest odd one up to 7x7 that fits the image side (at least 3).

    Local statistics come from every window fully inside the image; the
    default 8x8 images take the 7x7 window. Identical images score 1.
    """
    t, r = _pair(truth, recon)
    side = int(round(np.sqrt(t.size)))
    if side * side != t.size or side < 3:
        raise InvalidInput(f"ssim needs square images of side >= 3, got {t.size} pixels")
    window = min(7, side - 1 + side % 2)
    ti = t.reshape(side, side)
    ri = r.reshape(side, side)
    tw = np.lib.stride_tricks.sliding_window_view(ti, (window, window))
    rw = np.lib.stride_tricks.sliding_window_view(ri, (window, window))
    mu_t = tw.mean(axis=(2, 3))
    mu_r = rw.mean(axis=(2, 3))
    var_t = np.square(tw).mean(axis=(2, 3)) - np.square(mu_t)
    var_r = np.square(rw).mean(axis=(2, 3)) - np.square(mu_r)
    cov = (tw * rw).mean(axis=(2, 3)) - mu_t * mu_r
    score = ((2 * mu_t * mu_r + SSIM_C1) * (2 * cov + SSIM_C2)) / (
        (mu_t**2 + mu_r**2 + SSIM_C1) * (var_t + var_r + SSIM_C2)
    )
    return float(score.mean())


def comm_reduction(defended_bytes: float, baseline_bytes: float) -> float:
    """Percentage drop in transmitted volume; negative when the defended
    payload is larger than the raw one."""
    if baseline_bytes <= 0:
        raise InvalidInput("baseline size must be positive")
    return 100.0 * (1.0 - defended_bytes / baseline_bytes)
