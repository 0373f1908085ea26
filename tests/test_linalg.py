"""Decomposition primitives: exact examples, oracle agreement, invariants."""

import numpy as np
import pytest

from oracles import gram_singular_values
from svdlab import linalg
from svdlab.errors import DegenerateInput, InvalidInput
from svdlab.linalg import singular_entropy, svd, truncate_by_energy

# -(0.64 ln 0.64 + 0.36 ln 0.36), the entropy of the sigma = [4, 3] spectrum
ENTROPY_43 = 0.6534181947937017


def random_shapes(rng, n):
    for _ in range(n):
        yield int(rng.integers(2, 65)), int(rng.integers(2, 49))


class TestSvd:
    def test_diagonal(self):
        f = svd(np.diag([3.0, 4.0]))
        np.testing.assert_allclose(f.sigma, [4.0, 3.0])

    def test_identity(self):
        f = svd(np.eye(3))
        np.testing.assert_allclose(f.sigma, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(f.u @ f.vt, np.eye(3), atol=1e-12)

    def test_matches_gram_oracle(self):
        rng = np.random.default_rng(42)
        w = rng.normal(size=(5, 4))
        ref = gram_singular_values(w)
        f = svd(w)
        np.testing.assert_allclose(f.sigma, ref[: len(f.sigma)], atol=1e-8)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(7)
        for p, q in random_shapes(rng, 60):
            m = rng.normal(size=(p, q))
            f = svd(m)
            r = len(f.sigma)
            assert np.linalg.norm(f.assemble() - m) <= 1e-8 * np.linalg.norm(m)
            np.testing.assert_allclose(f.u.T @ f.u, np.eye(r), atol=1e-8)
            np.testing.assert_allclose(f.vt @ f.vt.T, np.eye(r), atol=1e-8)
            assert np.all(np.diff(f.sigma) <= 1e-12)
            assert np.all(f.sigma >= 0.0)

    def test_rank_deficient(self):
        rng = np.random.default_rng(3)
        for rank in (1, 2, 3):
            m = rng.normal(size=(20, rank)) @ rng.normal(size=(rank, 15))
            f = svd(m)
            assert len(f.sigma) == rank
            assert np.linalg.norm(f.assemble() - m) <= 1e-8 * np.linalg.norm(m)

    @pytest.mark.parametrize("shape, ranks", [((32, 64), range(1, 19)), ((4, 32), range(1, 5))])
    def test_numerically_low_rank(self, shape, ranks):
        # Gradient-like updates: weighted rows of delta @ ReLU activations,
        # exactly rank r, with rounding-level noise from the float products.
        rng = np.random.default_rng(0)
        for rank in ranks:
            acts = np.maximum(rng.normal(size=(rank, shape[1])), 0.0)
            acts *= rng.random(acts.shape) < 0.2
            acts[:, :rank] += np.eye(rank)
            m = rng.normal(size=(shape[0], rank)) @ acts
            m *= np.sqrt(np.sum(m * m, axis=1))[:, None]
            f = svd(m)
            assert len(f.sigma) == rank
            np.testing.assert_allclose(f.sigma, gram_singular_values(m)[:rank], atol=1e-8)
            assert np.linalg.norm(f.assemble() - m) <= 1e-8 * np.linalg.norm(m)

    def test_wide_matrix_transposes(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(3, 40))
        f = svd(m)
        assert f.u.shape == (3, 3)
        assert f.vt.shape == (3, 40)
        assert np.linalg.norm(f.assemble() - m) <= 1e-8 * np.linalg.norm(m)

    def test_zero_matrix(self):
        f = svd(np.zeros((4, 6)))
        assert len(f.sigma) == 1 and f.sigma[0] == 0.0
        np.testing.assert_array_equal(f.assemble(), np.zeros((4, 6)))

    @pytest.mark.parametrize("scale", [1e-170, 1e170])
    def test_extreme_scales(self, scale):
        # squared entries under- or overflow unless svd rescales first
        f = svd(np.full((3, 4), scale))
        assert len(f.sigma) == 1
        assert f.sigma[0] == pytest.approx(np.sqrt(12.0) * scale, rel=1e-8)
        np.testing.assert_allclose(f.assemble(), np.full((3, 4), scale), rtol=1e-12)
        assert singular_entropy(f.sigma) == 0.0
        k, kept = linalg.energy_rank(np.array([3.0, 1.0]) * scale, 0.5)
        assert k == 1 and kept == pytest.approx(0.9, rel=1e-12)

    def test_power_of_two_scaling_is_exact(self):
        rng = np.random.default_rng(21)
        m = rng.normal(size=(32, 3)) @ rng.normal(size=(3, 64))
        f, g = svd(m), svd(np.ldexp(m, -40))
        np.testing.assert_array_equal(g.sigma, np.ldexp(f.sigma, -40))
        np.testing.assert_array_equal(g.u, f.u)
        np.testing.assert_array_equal(g.vt, f.vt)

    def test_input_not_mutated(self):
        rng = np.random.default_rng(11)
        for m in (rng.normal(size=(4, 9)), rng.normal(size=(9, 4))):
            before = m.copy()
            svd(m)
            np.testing.assert_array_equal(m, before)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(12, 9))
        f1, f2 = svd(m), svd(m)
        np.testing.assert_array_equal(f1.u, f2.u)
        np.testing.assert_array_equal(f1.sigma, f2.sigma)
        np.testing.assert_array_equal(f1.vt, f2.vt)

    def test_sign_convention(self):
        rng = np.random.default_rng(2)
        f = svd(rng.normal(size=(10, 6)))
        for i in range(len(f.sigma)):
            col = f.u[:, i]
            assert col[np.argmax(np.abs(col))] >= 0.0

    def test_rejects_nonfinite(self):
        bad = np.ones((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(InvalidInput):
            svd(bad)
        with pytest.raises(InvalidInput):
            svd(np.ones((0, 3)))


class TestTruncateByEnergy:
    def _factors(self, sigma):
        r = len(sigma)
        return linalg.SvdFactors(
            u=np.eye(max(r, 2))[:, :r], sigma=np.array(sigma, float), vt=np.eye(r, 5)
        )

    def test_half_threshold(self):
        t = truncate_by_energy(self._factors([4.0, 3.0]), 0.5)
        assert t.retained_rank == 1
        assert t.retained_energy_fraction == pytest.approx(0.64)

    def test_high_threshold(self):
        t = truncate_by_energy(self._factors([4.0, 3.0]), 0.99)
        assert t.retained_rank == 2

    def test_zero_threshold(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            sigma = np.sort(rng.uniform(0.1, 5.0, size=6))[::-1]
            assert truncate_by_energy(self._factors(sigma), 0.0).retained_rank == 1

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(9)
        sigma = np.sort(rng.uniform(0.0, 3.0, size=8))[::-1]
        f = self._factors(sigma)
        ranks = [truncate_by_energy(f, t).retained_rank for t in np.linspace(0, 0.999, 40)]
        assert all(a <= b for a, b in zip(ranks, ranks[1:]))

    def test_residual_bound(self):
        # truncation residual never exceeds sqrt(1 - T) times the input norm
        rng = np.random.default_rng(21)
        for p, q in random_shapes(rng, 100):
            m = rng.normal(size=(p, q))
            t = float(rng.uniform(0.0, 0.999))
            trunc = truncate_by_energy(svd(m), t)
            resid = np.linalg.norm(m - trunc.assemble())
            bound = np.sqrt(1.0 - t) * np.linalg.norm(m)
            assert resid <= bound * (1.0 + 1e-9) + 1e-12

    def test_degenerate(self):
        with pytest.raises(DegenerateInput):
            truncate_by_energy(self._factors([0.0, 0.0]), 0.5)
        for bad in (1.5, -0.1, np.nan):
            with pytest.raises(InvalidInput):
                truncate_by_energy(self._factors([1.0]), bad)

    def test_threshold_one_keeps_full_rank(self):
        sigma = [4.0, 3.0, 1e-3]
        t = truncate_by_energy(self._factors(sigma), 1.0)
        assert t.retained_rank == 3
        assert t.retained_energy_fraction == pytest.approx(1.0)
        assert linalg.energy_rank(np.array(sigma), 1.0) == (3, t.retained_energy_fraction)


class TestSingularEntropy:
    def test_single_component(self):
        assert singular_entropy([1.0]) == 0.0

    def test_uniform(self):
        for r in (2, 5, 17):
            assert singular_entropy([0.7] * r) == pytest.approx(np.log(r))

    def test_known_value(self):
        assert singular_entropy([4.0, 3.0]) == pytest.approx(ENTROPY_43, abs=1e-12)

    def test_bounds_and_scale_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            sigma = rng.uniform(0.0, 4.0, size=int(rng.integers(1, 12)))
            if not np.any(sigma > 0):
                continue
            e = singular_entropy(sigma)
            assert 0.0 <= e <= np.log(len(sigma)) + 1e-12
            for c in (1e-3, 2.0, 1e4):
                assert singular_entropy(c * sigma) == pytest.approx(e, abs=1e-9)

    def test_degenerate(self):
        with pytest.raises(DegenerateInput):
            singular_entropy([0.0, 0.0])

