"""Dense matrix decomposition primitives.

Everything downstream (defense, aggregation, attack bookkeeping) operates on
plain 2-D float64 numpy arrays. This module owns the singular value
decomposition, energy-based rank truncation, and the entropy of a singular
value spectrum.

The SVD is a rank-revealing one-sided Jacobi iteration (Drmac & Veselic,
2008): a column-pivoted Householder QR of the taller-oriented matrix deflates
it to its numerical rank, then plane rotations, applied to disjoint pairs in
round-robin order (Brent & Luk, 1985), orthogonalize the rows of R. The
result is deterministic, accurate to machine precision for the small dense
matrices we care about, and free of any library-specific convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, InvalidInput, NumericalFailure

# Row pairs whose dot product is at most OFFDIAG_TOL * ||a_i|| * ||a_j|| count
# as orthogonal; MAX_SWEEPS caps the Jacobi iteration. The QR stops once the
# trailing block's Frobenius norm is <= RANK_TOL * |R_00|, and only singular
# values strictly above RANK_TOL * sigma_max are kept; dropping the rest keeps
# reconstruction well inside the 1e-8 * ||input||_F contract.
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


def _unit_scale(a: np.ndarray, axis=None) -> tuple[np.ndarray, np.ndarray]:
    """(a * 2**-e, e) with max|a * 2**-e| in [0.5, 1) over `axis` (all axes
    by default; e keeps them with size 1): exact, so ratios are kept while
    squares of tiny or huge entries neither underflow nor overflow."""
    e = np.frexp(np.abs(a).max(axis=axis, initial=0.0, keepdims=True))[1]
    return np.ldexp(a, -e), e


def frobenius_norm(m) -> float:
    """sqrt of the sum of squared entries."""
    return float(np.sqrt(np.sum(np.square(as_matrix(m)))))


def _pivoted_qr(a: np.ndarray):
    """Householder QR of `a` (p x q, p >= q) with dynamic column pivoting,
    stopped at the numerical rank r, once the trailing block's Frobenius norm
    is <= RANK_TOL * |R_00|. Returns the r reflectors (v, tau) of
    Q = H_0 ... H_{r-1}, the r x q upper-trapezoidal R, and the column order
    perm, with a[:, perm] = Q[:, :r] R up to the deflated trailing block."""
    a = a.copy()
    perm = np.arange(a.shape[1])
    reflectors = []
    tol = RANK_TOL * np.linalg.norm(a, axis=0).max()
    for k in range(a.shape[1]):
        norms2 = np.einsum("ij,ij->j", a[k:, k:], a[k:, k:])
        if math.sqrt(norms2.sum()) <= tol:
            break
        j = k + int(np.argmax(norms2))
        a[:, [k, j]], perm[[k, j]] = a[:, [j, k]], perm[[j, k]]
        v = a[k:, k].copy()
        v[0] += math.copysign(math.sqrt(norms2[j - k]), v[0])
        tau = 2.0 / float(v @ v)
        a[k:, k:] -= v[:, None] * (tau * (v @ a[k:, k:]))
        reflectors.append((v, tau))
    return reflectors, np.triu(a[: len(reflectors)]), perm


def _round_robin(n: int) -> np.ndarray:
    """Brent & Luk's parallel ordering of the pairs of n indices, as a
    (steps, 2, n // 2) array: each step holds disjoint pairs (i, j), and the
    n - 1 steps (n for odd n) cover every pair once. Index m - 1 (m = n
    rounded up to even) keeps its place while the others rotate, so for odd
    n its pairs, in column 0, are dropped."""
    m = n + n % 2
    t = np.arange(m - 1)
    ring = np.hstack([np.full((m - 1, 1), m - 1), (t[None, :] + t[:, None]) % (m - 1)])
    return np.stack([ring[:, : m // 2], ring[:, ::-1][:, : m // 2]], axis=1)[:, :, n % 2 :]


def _jacobi_rows(w: np.ndarray, q: int) -> np.ndarray:
    """Orthogonalize the rows of w[:, :q] by one-sided Jacobi, in place.

    Each round-robin step rotates all its disjoint pairs of whole rows in one
    numpy operation, so columns q: accumulate the rotations. A pair whose dot
    product, re-read from the live rows, exceeds OFFDIAG_TOL times the
    product of its row norms is rotated by the inner angle (|theta| <= pi/4);
    a sweep that rotates nothing ends the iteration.
    """
    steps = _round_robin(w.shape[0])
    for _ in range(MAX_SWEEPS):
        rotated = False
        for pairs in steps:
            x = w[pairs]
            g = np.einsum("aik,bik->abi", x[:, :, :q], x[:, :, :q])
            gii, gij, gjj = g[0, 0], g[0, 1], g[1, 1]
            active = np.abs(gij) > OFFDIAG_TOL * np.sqrt(gii * gjj)
            if not active.any():
                continue
            rotated = True
            # tan(2 theta) = 2 gij / (gii - gjj); inactive pairs get theta = 0
            y = np.where(gii < gjj, -2.0, 2.0) * active * gij
            theta = 0.5 * np.arctan2(y, np.abs(gii - gjj))
            c, s = np.cos(theta), np.sin(theta)
            w[pairs] = np.einsum("abi,bik->aik", np.array([[c, s], [-s, c]]), x)
        if not rotated:
            return w
    raise NumericalFailure(f"Jacobi SVD did not converge within {MAX_SWEEPS} sweeps")


def svd(m) -> SvdFactors:
    """Compact SVD of a finite 2-D matrix.

    The taller orientation A (p x q) is factored as A[:, perm] = Q R by
    _pivoted_qr, deflated to the numerical rank r, and _jacobi_rows turns the
    r rows of R into B = J R with orthogonal rows: U = Q J^T, sigma = the row
    norms of B, and V^T = B / sigma with the permutation undone. Singular
    values come in descending order; only those strictly above
    RANK_TOL * sigma_max are kept (at least one triple is always kept, with
    sigma 0 for an all-zero matrix). The sign of each left singular vector is
    fixed so its largest-magnitude entry is non-negative, making factors
    comparable across runs. A is first scaled exactly by a power of two (see
    _unit_scale), so entries far from 1 in magnitude lose no accuracy.
    """
    m, scale = _unit_scale(as_matrix(m))
    transposed = m.shape[0] < m.shape[1]
    a = m.T if transposed else m
    p, q = a.shape
    reflectors, rmat, perm = _pivoted_qr(a)
    r = len(reflectors)
    if r == 0:  # zero matrix: any unit vectors complete the factors
        u, sigma, vr = np.eye(p, 1), np.zeros(1), np.eye(q, 1)
    else:
        w = _jacobi_rows(np.hstack([rmat, np.eye(r)]), q)
        sigma = np.sqrt(np.einsum("ij,ij->i", w[:, :q], w[:, :q]))
        order = np.argsort(-sigma, kind="stable")
        order = order[sigma[order] > RANK_TOL * sigma[order[0]]]
        sigma = sigma[order]
        u = np.concatenate([w[order, q:].T, np.zeros((p - r, len(order)))])
        for k in reversed(range(r)):  # U = H_0 ... H_{r-1} [J^T; 0]
            v, tau = reflectors[k]
            u[k:] -= v[:, None] * (tau * (v @ u[k:]))
        vr = np.empty((q, len(order)))
        vr[perm] = (w[order, :q] / sigma[:, None]).T
    if transposed:
        u, vr = vr, u
    # sign convention on left singular vectors
    flip = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])] < 0.0
    u[:, flip], vr[:, flip] = -u[:, flip], -vr[:, flip]
    return SvdFactors(u=u, sigma=np.ldexp(sigma, scale.item()), vt=vr.T)


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
