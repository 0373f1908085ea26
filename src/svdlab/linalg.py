"""Dense matrix decomposition primitives.

Everything downstream (defense, aggregation, attack bookkeeping) operates on
plain 2-D float64 numpy arrays. This module owns the singular value
decomposition and the exact power-of-two scaling that keeps squares of tiny
or huge entries finite.

The SVD is numpy's LAPACK driver behind a fixed contract: exact power-of-two
prescaling, a strict relative rank cut, a sign rule on the left singular
vectors and a convention for the zero matrix. What a spectrum means to the
defense (its entropy, threshold and kept rank) is defense.rank_rule, which
applies the same rank cut to every spectrum it is given, the replaying
attacker's stacked LAPACK spectra (attack._replay_projectors) among them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

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
    u, sigma, vt = np.linalg.svd(m, full_matrices=False)
    if sigma[0] == 0.0:  # zero matrix: any unit vectors complete the factors
        u, sigma, vt = np.eye(m.shape[0], 1), np.zeros(1), np.eye(1, m.shape[1])
    else:
        r = int(np.count_nonzero(sigma > RANK_TOL * sigma[0]))
        u, sigma, vt = u[:, :r], sigma[:r], vt[:r]
    sign = np.where(u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])] < 0.0, -1.0, 1.0)
    return SvdFactors(u=u * sign, sigma=np.ldexp(sigma, scale.item()), vt=vt * sign[:, None])

