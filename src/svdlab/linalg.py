"""Dense matrix decomposition primitives.

Everything downstream (defense, aggregation, attack bookkeeping) operates on
plain 2-D float64 numpy arrays. This module owns the singular value
decomposition, energy-based rank truncation, and the entropy of a singular
value spectrum.

The SVD is numpy's LAPACK driver behind a fixed contract: exact power-of-two
prescaling, a strict relative rank cut, a sign rule on the left singular
vectors and a convention for the zero matrix. The replaying attacker
(attack._replay_projectors) applies the same rank cut to its own spectra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, InvalidInput, NumericalFailure

# Only singular values strictly above RANK_TOL * sigma_max are kept; dropping
# the rest keeps reconstruction well inside the 1e-8 * ||input||_F contract.
RANK_TOL = 1e-11


def as_matrix(a) -> np.ndarray:
    """Validate and return `a` as a finite 2-D float64 array."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise InvalidInput(f"expected a non-empty 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInput("matrix contains NaN or Inf entries")
    return m


@dataclass(frozen=True)
class SvdFactors:
    """Compact SVD: u (p x r, orthonormal columns), sigma (descending),
    vt (r x q, orthonormal rows)."""

    u: np.ndarray
    sigma: np.ndarray
    vt: np.ndarray

    def assemble(self) -> np.ndarray:
        return (self.u * self.sigma) @ self.vt


@dataclass(frozen=True)
class TruncatedFactors:
    """Top-k slice of an SVD plus the fraction of squared-sigma mass it keeps."""

    u_star: np.ndarray
    sigma_star: np.ndarray
    vt_star: np.ndarray
    retained_energy_fraction: float

    @property
    def retained_rank(self) -> int:
        return len(self.sigma_star)

    def assemble(self) -> np.ndarray:
        return (self.u_star * self.sigma_star) @ self.vt_star


def _unit_scale(a: np.ndarray, axis=None) -> tuple[np.ndarray, np.ndarray]:
    """(a * 2**-e, e) with max|a * 2**-e| in [0.5, 1) over `axis` (all axes
    by default; e keeps them with size 1): exact, so ratios are kept while
    squares of tiny or huge entries neither underflow nor overflow."""
    e = np.frexp(np.abs(a).max(axis=axis, initial=0.0, keepdims=True))[1]
    return np.ldexp(a, -e), e


def svd(m) -> SvdFactors:
    """Compact SVD of a finite 2-D matrix, from one LAPACK call.

    Singular values come in descending order; only those strictly above
    RANK_TOL * sigma_max are kept. An all-zero matrix gets the single triple
    (e_1, 0, e_1^T). The sign of each left singular vector is fixed so its
    largest-magnitude entry is non-negative, making factors comparable across
    runs. The matrix is first scaled exactly by a power of two (see
    _unit_scale), so scaling the input by 2**e scales sigma by exactly 2**e
    and leaves the vectors bit for bit as they were.
    """
    m, scale = _unit_scale(as_matrix(m))
    try:
        u, sigma, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from None
    if sigma[0] == 0.0:  # zero matrix: any unit vectors complete the factors
        u, sigma, vt = np.eye(m.shape[0], 1), np.zeros(1), np.eye(1, m.shape[1])
    else:
        r = int(np.count_nonzero(sigma > RANK_TOL * sigma[0]))
        u, sigma, vt = u[:, :r], sigma[:r], vt[:r]
    flip = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])] < 0.0
    u[:, flip], vt[flip] = -u[:, flip], -vt[flip]
    return SvdFactors(u=u, sigma=np.ldexp(sigma, scale.item()), vt=vt)


def energy_rank(sigma, threshold):
    """Smallest k whose cumulative squared-sigma fraction strictly exceeds
    `threshold`, clamped to len(sigma) so that a threshold of 1 keeps full
    rank. Returns (k, the fraction of squared-sigma mass the top k keep).
    Leading axes of sigma (..., r) stack spectra, each with its threshold."""
    threshold = np.asarray(threshold, dtype=np.float64)
    if not ((0.0 <= threshold) & (threshold <= 1.0)).all():
        raise InvalidInput(f"threshold must be in [0, 1], got {threshold}")
    energy = np.square(_unit_scale(np.asarray(sigma, dtype=np.float64), -1)[0])
    total = energy.sum(axis=-1, keepdims=True)
    if (total <= 0.0).any():
        raise DegenerateInput("all singular values are zero")
    fractions = energy.cumsum(axis=-1) / total
    below = fractions <= threshold[..., None]
    k = np.minimum(below.sum(axis=-1) + 1, energy.shape[-1])
    kept = np.where(below, fractions[..., -1:], fractions).min(axis=-1)  # fractions never fall
    return (int(k), float(kept)) if k.ndim == 0 else (k, kept)


def truncate_by_energy(f: SvdFactors, threshold: float) -> TruncatedFactors:
    """Top-k slice of `f`, k from energy_rank (always at least one triple)."""
    k, retained = energy_rank(f.sigma, threshold)
    return TruncatedFactors(
        u_star=f.u[:, :k].copy(),
        sigma_star=f.sigma[:k].copy(),
        vt_star=f.vt[:k, :].copy(),
        retained_energy_fraction=retained,
    )


def singular_entropy(sigma):
    """Shannon entropy (nats) of the normalized squared singular values.

    Uses the 0 * ln 0 = 0 convention; the result lies in [0, ln r]. Leading
    axes of sigma (..., r) stack spectra, one entropy each.
    """
    s = np.asarray(sigma, dtype=np.float64)
    if s.ndim < 1 or s.shape[-1] == 0:
        raise InvalidInput("sigma must be a non-empty array of spectra")
    energy = np.square(_unit_scale(s, -1)[0])
    total = energy.sum(axis=-1, keepdims=True)
    if (total <= 0.0).any():
        raise DegenerateInput("all singular values are zero")
    tilde = energy / total
    h = -(tilde * np.log(tilde, out=np.zeros_like(tilde), where=tilde > 0.0)).sum(axis=-1)
    return float(h) if h.ndim == 0 else h
