"""Synthetic data generation and the two partitioners."""

import struct

import numpy as np
import pytest

from oracles import meshgrid_class_template
from svdlab import data
from svdlab.errors import InvalidConfig


class TestMakeSynthetic:
    def test_deterministic(self):
        a = data.make_synthetic(4, 20, 8, seed=5)
        b = data.make_synthetic(4, 20, 8, seed=5)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_counts(self):
        ds = data.make_synthetic(4, 50, 8, seed=1)
        assert ds.x.shape == (200, 64) and ds.y.shape == (200,)
        for c in range(4):
            assert np.count_nonzero(ds.y == c) == 50

    def test_range_and_dims(self):
        ds = data.make_synthetic(3, 5, 10, seed=2)
        assert ds.x.shape == (15, 100)
        assert np.all(ds.x >= 0.0) and np.all(ds.x <= 1.0)

    def test_template_separation(self):
        # every pair of class templates differs by >= 0.2 mean abs pixels
        templates = [data.class_template(c, 8) for c in range(12)]
        for i in range(len(templates)):
            for j in range(i + 1, len(templates)):
                assert np.mean(np.abs(templates[i] - templates[j])) >= 0.2

    def test_validation(self):
        with pytest.raises(InvalidConfig):
            data.make_synthetic(1, 5, 8, seed=0)
        with pytest.raises(InvalidConfig):
            data.make_synthetic(3, 5, 3, seed=0)

    def test_no_template_beyond_the_twelfth(self):
        for make in (lambda: data.class_template(12, 8), lambda: data.make_synthetic(13, 1, 8, 0)):
            with pytest.raises(InvalidConfig, match="only 12 distinct class templates"):
                make()

    def test_template_matches_the_meshgrid_formula(self):
        for cls in range(len(data._TEMPLATE_PARAMS)):
            for side in range(4, 33):
                assert np.array_equal(data.class_template(cls, side),
                                      meshgrid_class_template(cls, side)), (cls, side)


class TestPartitionRho:
    def test_keeps_everything_at_one(self):
        ds = data.make_synthetic(4, 10, 8, seed=3)
        shards = data.partition_rho(ds, 1.0, seed=1)
        assert sorted(shards[0]) == list(range(40))

    def test_decay_counts(self):
        # N = (8, 8, 8) at rho = 0.5 keeps (8, 4, 2) along the shuffled order
        ds = data.make_synthetic(3, 8, 8, seed=4)
        shards = data.partition_rho(ds, 0.5, seed=9)
        assert sorted(np.bincount(ds.y[shards[0]], minlength=3).tolist()) == [2, 4, 8]
        assert len(shards[0]) == 14

    @pytest.mark.parametrize("rho", [0.1, 1e-200, 5e-324])
    def test_ceil_keeps_every_class(self, rho):
        # at the two tiny rhos, rho**pos underflows to 0 from the third class on
        ds = data.make_synthetic(5, 6, 8, seed=5)
        shards = data.partition_rho(ds, rho, seed=2)
        assert np.all(np.bincount(ds.y[shards[0]], minlength=5) >= 1)

    def test_deterministic(self):
        ds = data.make_synthetic(4, 12, 8, seed=6)
        p1 = data.partition_rho(ds, 0.4, seed=7)
        p2 = data.partition_rho(ds, 0.4, seed=7)
        assert p1 == p2

    def test_monotone_in_rho(self):
        ds = data.make_synthetic(4, 16, 8, seed=8)
        totals = [
            len(data.partition_rho(ds, rho, seed=3)[0])
            for rho in np.linspace(0.1, 1.0, 10)
        ]
        assert all(a <= b for a, b in zip(totals, totals[1:]))

    def test_rejects_bad_rho(self):
        ds = data.make_synthetic(2, 4, 8, seed=0)
        for rho in (0.0, 1.2, -0.5):
            with pytest.raises(InvalidConfig):
                data.partition_rho(ds, rho, seed=0)


class TestPartitionDirichlet:
    def test_disjoint_and_complete(self):
        ds = data.make_synthetic(5, 100, 8, seed=0)
        for seed in range(5):
            shards = data.partition_dirichlet(ds, 10, 0.5, seed=seed)
            merged = sorted(i for s in shards for i in s)
            assert merged == list(range(500))
            assert all(len(s) >= 1 for s in shards)

    def test_concentrated_alpha_balances(self):
        ds = data.make_synthetic(4, 40, 8, seed=1)
        shards = data.partition_dirichlet(ds, 2, 1e6, seed=4)
        for shard in shards:
            assert np.all(np.abs(np.bincount(ds.y[shard], minlength=4) - 20) <= 2)

    def test_alpha_half_imbalance(self):
        # moderate alpha should leave most clients visibly class-skewed
        ds = data.make_synthetic(5, 100, 8, seed=2)
        skewed_fractions = []
        for seed in range(20):
            shards = data.partition_dirichlet(ds, 10, 0.5, seed=100 + seed)
            skewed = 0
            for shard in shards:
                profile = np.bincount(ds.y[shard], minlength=5)
                lo = max(int(profile.min()), 1)
                if profile.max() / lo > 2.0:
                    skewed += 1
            skewed_fractions.append(skewed / len(shards))
        assert np.mean(skewed_fractions) >= 0.5

    def test_deterministic(self):
        ds = data.make_synthetic(3, 30, 8, seed=3)
        p1 = data.partition_dirichlet(ds, 4, 0.5, seed=11)
        p2 = data.partition_dirichlet(ds, 4, 0.5, seed=11)
        assert p1 == p2

    def test_too_many_clients(self):
        ds = data.make_synthetic(2, 2, 8, seed=0)
        with pytest.raises(InvalidConfig):
            data.partition_dirichlet(ds, 5, 0.5, seed=0)

    @pytest.mark.parametrize("clients, alpha, says", [(1, 0.5, "at least two clients"),
                                                      (2, 0.0, "alpha must be positive")])
    def test_needs_two_clients_and_a_positive_alpha(self, clients, alpha, says):
        ds = data.make_synthetic(2, 4, 8, seed=0)
        with pytest.raises(InvalidConfig, match=says):
            data.partition_dirichlet(ds, clients, alpha, seed=0)


class TestPartitionRhoClients:
    def test_shards_disjoint(self):
        ds = data.make_synthetic(4, 40, 8, seed=9)
        shards = data.partition_rho_clients(ds, 4, 0.5, seed=3)
        merged = [i for s in shards for i in s]
        assert len(merged) == len(set(merged))
        assert len(shards) == 4

    def test_needs_a_client(self):
        ds = data.make_synthetic(2, 4, 8, seed=0)
        with pytest.raises(InvalidConfig, match="at least one client"):
            data.partition_rho_clients(ds, 0, 1.0, seed=0)

    def test_rho_one_covers_everything(self):
        ds = data.make_synthetic(3, 30, 8, seed=10)
        shards = data.partition_rho_clients(ds, 3, 1.0, seed=5)
        merged = sorted(i for s in shards for i in s)
        assert merged == list(range(90))


class TestIdxLoader:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(7, 5, 5), dtype=np.uint8)
        labels = rng.integers(0, 3, size=7, dtype=np.uint8)
        img_path = tmp_path / "images.idx"
        lab_path = tmp_path / "labels.idx"
        with open(img_path, "wb") as fh:
            fh.write(struct.pack(">IIII", 2051, 7, 5, 5))
            fh.write(images.tobytes())
        with open(lab_path, "wb") as fh:
            fh.write(struct.pack(">II", 2049, 7))
            fh.write(labels.tobytes())
        ds = data.load_idx(img_path, lab_path, 3, 5)
        assert len(ds.y) == 7
        assert ds.x.shape == (7, 25)
        np.testing.assert_allclose(ds.x[0], images[0].reshape(25) / 255.0)
        np.testing.assert_array_equal(ds.y, labels)
