"""Dense matrix decomposition primitives.

Everything downstream (defense, aggregation, attack bookkeeping) operates on
plain 2-D float64 numpy arrays. This module owns the singular value
decomposition, energy-based rank truncation, and the entropy of a singular
value spectrum.

The SVD is a one-sided Jacobi iteration: plane rotations orthogonalize the
columns of the (taller-oriented) matrix, which makes the result fully
deterministic, accurate to machine precision for the small dense matrices we
care about, and free of any library-specific convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, InvalidInput, NumericalFailure

# Off-diagonal Gram products below OFFDIAG_TOL * ||a_i|| * ||a_j|| count as
# orthogonal; MAX_SWEEPS caps the Jacobi iteration. Singular values below
# RANK_TOL relative to sigma_max count as numerical-rank zero; dropping them
# keeps reconstruction well inside the 1e-8 * ||input||_F contract.
OFFDIAG_TOL = 1e-12
RANK_TOL = 1e-11
MAX_SWEEPS = 100


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


def frobenius_norm(m) -> float:
    """sqrt of the sum of squared entries."""
    return float(np.sqrt(np.sum(np.square(as_matrix(m)))))


def _converged(g: np.ndarray) -> bool:
    diag = np.maximum(np.diag(g), 0.0)
    limit = OFFDIAG_TOL * np.sqrt(np.outer(diag, diag))
    off = np.abs(g - np.diag(np.diag(g)))
    return bool(np.all(off <= limit))


def _jacobi_sweeps(at: np.ndarray):
    """Orthogonalize the rows of `at` (q x p, q <= p) by plane rotations, in
    place, accumulating the rotations in the rows of `vt`. Returns (at, vt).

    Convergence: every off-diagonal Gram entry is <= OFFDIAG_TOL times the
    product of the row norms. A fresh Gram is formed once per sweep for the
    skip test and the convergence certificate; each applied rotation re-reads
    its own dot products from the live data, so the rotation angles are
    always accurate relative to the pair's own scale. (Dot products taken
    from row data directly carry error of order eps * |row_i| * |row_j|,
    which keeps the relative criterion attainable even for rows many orders
    of magnitude below the dominant one.)
    """
    q = at.shape[0]
    vt = np.eye(q)
    for _ in range(MAX_SWEEPS):
        g = at @ at.T
        if _converged(g):
            return at, vt
        # sweep-start snapshot decides which pairs are worth re-examining;
        # the rotation itself always uses fresh dots
        diag0 = np.maximum(np.diag(g), 0.0)
        limit0 = OFFDIAG_TOL * np.sqrt(np.outer(diag0, diag0))
        candidates = np.abs(g) > limit0
        rotated = False
        for i in range(q - 1):
            row_candidates = candidates[i]
            for j in range(i + 1, q):
                if not row_candidates[j]:
                    continue
                ri = at[i]
                rj = at[j]
                gij = float(ri @ rj)
                gii = float(ri @ ri)
                gjj = float(rj @ rj)
                if abs(gij) <= OFFDIAG_TOL * math.sqrt(max(gii * gjj, 0.0)):
                    continue
                rotated = True
                theta = 0.5 * math.atan2(2.0 * gij, gii - gjj)
                c = math.cos(theta)
                s = math.sin(theta)
                for m in (at, vt):
                    mi = m[i].copy()
                    mj = m[j]
                    m[i] = c * mi + s * mj
                    m[j] = -s * mi + c * mj
        if not rotated:
            return at, vt
    if _converged(at @ at.T):
        return at, vt
    raise NumericalFailure(f"Jacobi SVD did not converge within {MAX_SWEEPS} sweeps")


def svd(m) -> SvdFactors:
    """Compact SVD of a finite 2-D matrix.

    Singular values are returned in descending order; values at or below
    DEFLATE_TOL relative to sigma_max count as numerical-rank zero and are
    dropped (at least one triple is always kept, with sigma 0 for an all-zero
    matrix). The sign of each left singular vector is fixed so its
    largest-magnitude entry is non-negative, making factors comparable across
    runs.
    """
    m = as_matrix(m)
    p, q = m.shape
    transposed = p < q
    a = m.T if transposed else m

    # rows of `at` are the columns being orthogonalized (contiguous access);
    # the explicit copy matters: sweeps rotate in place
    at, vt_rot = _jacobi_sweeps(a.T.copy())

    norms = np.sqrt(np.sum(np.square(at), axis=1))
    order = np.argsort(-norms, kind="stable")
    norms = norms[order]
    at = at[order]
    vt_rot = vt_rot[order]

    cutoff = RANK_TOL * (norms[0] if norms.size else 0.0)
    r = max(1, int(np.sum(norms > cutoff)))
    sigma = norms[:r].copy()

    u = np.zeros((a.shape[0], r))
    for i in range(r):
        if sigma[i] > 0.0:
            u[:, i] = at[i] / sigma[i]
        else:
            u[0, i] = 1.0  # zero matrix: any unit vector completes the factor
    vr = vt_rot[:r].T.copy()

    if transposed:
        u, vr = vr, u

    # sign convention on left singular vectors
    for i in range(r):
        col = u[:, i]
        if col[np.argmax(np.abs(col))] < 0.0:
            u[:, i] = -col
            vr[:, i] = -vr[:, i]

    return SvdFactors(u=u, sigma=sigma, vt=vr.T)


def energy_rank(sigma, threshold: float) -> tuple[int, float]:
    """Smallest k whose cumulative squared-sigma fraction strictly exceeds
    `threshold`, clamped to len(sigma) so that a threshold of 1 keeps full
    rank. Returns (k, the fraction of squared-sigma mass the top k keep)."""
    if not 0.0 <= threshold <= 1.0:
        raise InvalidInput(f"threshold must be in [0, 1], got {threshold}")
    energy = np.square(sigma)
    total = float(np.sum(energy))
    if total <= 0.0:
        raise DegenerateInput("all singular values are zero")
    fractions = np.cumsum(energy) / total
    k = int(np.searchsorted(fractions, threshold, side="right")) + 1
    k = min(k, len(sigma))
    return k, float(fractions[k - 1])


def truncate_by_energy(f: SvdFactors, threshold: float) -> TruncatedFactors:
    """Top-k slice of `f`, k from energy_rank (always at least one triple)."""
    k, retained = energy_rank(f.sigma, threshold)
    return TruncatedFactors(
        u_star=f.u[:, :k].copy(),
        sigma_star=f.sigma[:k].copy(),
        vt_star=f.vt[:k, :].copy(),
        retained_energy_fraction=retained,
    )


def singular_entropy(sigma) -> float:
    """Shannon entropy (nats) of the normalized squared singular values.

    Uses the 0 * ln 0 = 0 convention; the result lies in [0, ln r].
    """
    s = np.asarray(sigma, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise InvalidInput("sigma must be a non-empty 1-D array")
    energy = np.square(s)
    total = float(np.sum(energy))
    if total <= 0.0:
        raise DegenerateInput("all singular values are zero")
    tilde = energy / total
    nz = tilde[tilde > 0.0]
    return float(-np.sum(nz * np.log(nz)))
