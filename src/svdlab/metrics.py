"""Reconstruction-quality and communication-cost metrics."""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput


def _pair(truth, recon):
    t = np.asarray(truth, dtype=np.float64).ravel()
    r = np.asarray(recon, dtype=np.float64).ravel()
    if t.shape != r.shape:
        raise InvalidInput("image pair has mismatched lengths")
    return t, r


def mse(truth, recon) -> float:
    t, r = _pair(truth, recon)
    return float(np.mean(np.square(t - r)))


def residual_cosine(truth, recon, prior) -> float:
    """Leakage beyond the prior: the cosine of recon - prior with
    truth - prior, and 0 where either residual is zero."""
    t, r = _pair(truth, recon)
    p = _pair(truth, prior)[1]
    guess, target = r - p, t - p
    ng, nt = np.linalg.norm(guess), np.linalg.norm(target)
    return float(guess @ target / ng / nt) if ng and nt else 0.0


def comm_reduction(defended_bytes: float, baseline_bytes: float) -> float:
    """Percentage drop in transmitted volume; negative when the defended
    payload is larger than the raw one."""
    if baseline_bytes <= 0:
        raise InvalidInput("baseline size must be positive")
    return 100.0 * (1.0 - defended_bytes / baseline_bytes)
