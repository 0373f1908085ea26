"""Defense pipeline: threshold law, channel weighting, truncation bounds,
baselines, packet transport."""

import math

import numpy as np
import pytest

from svdlab import defense, linalg, tinynn
from svdlab.defense import (
    DefenseConfig,
    adaptive_threshold,
    channel_weights,
    defend_baseline,
    defend_grad_svd,
    defend_update,
    deserialize_packet,
    packets_to_gradset,
    parameter_count,
    reconstruct_packet,
    serialize_packet,
)
from svdlab.errors import InvalidConfig, InvalidInput
from svdlab.tinynn import GradSet, LayerGrads


def gradset_from(tensors):
    layers = []
    for w, b in tensors:
        layers.append(LayerGrads(np.asarray(w, float), np.asarray(b, float)))
    return GradSet(layers)


class TestAdaptiveThreshold:
    def test_zero_entropy(self):
        assert adaptive_threshold(0.0, 0.3) == 0.0

    def test_reference_point(self):
        # 1 - exp(-0.3 * 0.6534)
        assert adaptive_threshold(0.6534, 0.3) == pytest.approx(0.1780, abs=1e-4)

    def test_saturates(self):
        assert adaptive_threshold(100.0, 0.3) > 1.0 - 1e-13

    def test_monotone(self):
        grid = np.linspace(0.0, 8.0, 100)
        vals = [adaptive_threshold(e, 0.3) for e in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v < 1.0 for v in vals)

    def test_validation(self):
        with pytest.raises(InvalidInput):
            adaptive_threshold(-0.1, 0.3)
        with pytest.raises(InvalidInput):
            adaptive_threshold(0.5, 0.0)


class TestChannelWeights:
    def test_pythagorean_rows(self):
        w = channel_weights(np.array([[3.0, 4.0], [0.0, 0.0]]))
        assert w[0] == pytest.approx(5.0)
        assert 0.0 < w[1] <= 1e-7  # floored, not zero

    def test_all_zero_rows(self):
        w = channel_weights(np.zeros((3, 4)))
        assert np.all(w == 1e-12)

    def test_tiny_rows_keep_their_norms(self):
        # squares of 1e-170 underflow; the power-of-two scaling keeps them
        assert channel_weights(np.full((3, 4), 1e-170)).tolist() == [2e-170] * 3

    def test_weighting_roundtrip(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=(6, 9))
        w = channel_weights(g)
        back = (w[:, None] * g) / w[:, None]
        np.testing.assert_allclose(back, g, atol=1e-10)


class TestDefendGradSvd:
    def test_rank_one_is_lossless(self):
        rng = np.random.default_rng(1)
        g = np.outer(rng.normal(size=7), rng.normal(size=5))
        pkt = defend_grad_svd(g, beta=0.3)
        assert pkt.entropy == pytest.approx(0.0, abs=1e-12)
        assert len(pkt.sigma_star) == 1
        np.testing.assert_allclose(reconstruct_packet(pkt), g, atol=1e-8)

    def test_composes_the_pieces(self):
        # the packet must equal the hand-chained weight/svd/entropy/threshold
        g = np.diag([4.0, 3.0])
        pkt = defend_grad_svd(g, beta=0.3)
        w = channel_weights(g)
        factors = linalg.svd(w[:, None] * g)
        entropy = linalg.singular_entropy(factors.sigma)
        threshold = adaptive_threshold(entropy, 0.3)
        trunc = linalg.truncate_by_energy(factors, threshold)
        assert pkt.entropy == pytest.approx(entropy, abs=1e-12)
        assert len(pkt.sigma_star) == trunc.retained_rank
        np.testing.assert_allclose(pkt.sigma_star, trunc.sigma_star)

    def test_weighted_residual_bound(self):
        # Frobenius residual <= cond(weights) * sqrt(1 - T) * ||g||_F
        rng = np.random.default_rng(2)
        g = rng.normal(size=(32, 16))
        pkt = defend_grad_svd(g, beta=0.3)
        t = adaptive_threshold(pkt.entropy, 0.3)
        cond = float(pkt.channel_weights.max() / pkt.channel_weights.min())
        resid = np.linalg.norm(g - reconstruct_packet(pkt))
        assert resid <= cond * math.sqrt(1.0 - t) * np.linalg.norm(g) * (1 + 1e-9)

    def test_zero_matrix_degenerate_path(self):
        pkt = defend_grad_svd(np.zeros((4, 5)), beta=0.3)
        assert pkt.entropy == 0.0
        assert len(pkt.sigma_star) == 1
        np.testing.assert_array_equal(reconstruct_packet(pkt), np.zeros((4, 5)))

    def test_rejects_vectors(self):
        with pytest.raises(InvalidInput):
            defend_grad_svd(np.ones((1, 5)), beta=0.3)

    def test_residual_touches_every_channel(self):
        # the removed part is dense: no surviving structure an adaptive
        # attacker could mask out
        rng = np.random.default_rng(3)
        zero_entries = 0
        total = 0
        for _ in range(100):
            g = rng.normal(size=(10, 8))
            pkt = defend_grad_svd(g, beta=0.05)  # low beta forces truncation
            if len(pkt.sigma_star) == min(g.shape):
                continue
            resid = g - reconstruct_packet(pkt)
            zero_entries += int(np.sum(np.abs(resid) < 1e-15))
            total += resid.size
        assert total > 0
        assert zero_entries / total < 0.01


class TestTheoremBounds:
    def test_plain_truncation_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p, q = int(rng.integers(2, 33)), int(rng.integers(2, 25))
            g = rng.normal(size=(p, q))
            t = float(rng.uniform(0.0, 0.999))
            trunc = linalg.truncate_by_energy(linalg.svd(g), t)
            resid = np.linalg.norm(g - trunc.assemble())
            assert resid <= math.sqrt(1.0 - t) * np.linalg.norm(g) * (1 + 1e-9) + 1e-12

    def test_weighted_truncation_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p, q = int(rng.integers(2, 33)), int(rng.integers(2, 25))
            g = rng.normal(size=(p, q))
            t = float(rng.uniform(0.0, 0.999))
            w = channel_weights(g)
            trunc = linalg.truncate_by_energy(linalg.svd(w[:, None] * g), t)
            recon = trunc.assemble() / w[:, None]
            cond = float(w.max() / w.min())
            resid = np.linalg.norm(g - recon)
            bound = cond * math.sqrt(1.0 - t) * np.linalg.norm(g)
            assert resid <= bound * (1 + 1e-9) + 1e-12


class TestBaselines:
    def test_prune_keeps_largest(self):
        grads = gradset_from([(np.arange(1.0, 9.0).reshape(2, 4), [0.5, -2.0])])
        cfg = DefenseConfig(method="prune", prune_rate=0.9)
        out, _ = defend_baseline(grads, cfg)
        w = out.layers[0].weight_grad
        assert np.count_nonzero(w) == 1
        assert w.ravel()[7] == 8.0

    def test_prune_tie_break_lower_index(self):
        grads = gradset_from([(np.ones((2, 5)), np.zeros(2))])
        cfg = DefenseConfig(method="prune", prune_rate=0.9)
        out, _ = defend_baseline(grads, cfg)
        w = out.layers[0].weight_grad.ravel()
        assert np.count_nonzero(w) == 1 and w[0] == 1.0

    def test_dgp_band(self):
        values = np.arange(1.0, 21.0)  # 20 entries
        grads = gradset_from([(values.reshape(4, 5), np.zeros(4))])
        cfg = DefenseConfig(method="dgp", dgp_small_rate=0.75, dgp_large_rate=0.05)
        out, _ = defend_baseline(grads, cfg)
        survivors = np.sort(out.layers[0].weight_grad.ravel())
        survivors = survivors[survivors != 0.0]
        # smallest 15 and largest 1 pruned: the 75th..95th percentile band stays
        np.testing.assert_array_equal(survivors, [16.0, 17.0, 18.0, 19.0])

    def test_dgp_error_feedback_conservation(self):
        rng = np.random.default_rng(6)
        grads = gradset_from([(rng.normal(size=(4, 6)), rng.normal(size=4))])
        cfg = DefenseConfig(method="dgp")
        out, residual = defend_baseline(grads, cfg)
        for g, o, r in zip(grads.layers, out.layers, residual.layers):
            np.testing.assert_array_equal(g.weight_grad - o.weight_grad, r.weight_grad)
            np.testing.assert_array_equal(g.bias_grad - o.bias_grad, r.bias_grad)

    def test_dgp_residual_reinjected(self):
        rng = np.random.default_rng(7)
        g1 = gradset_from([(rng.normal(size=(3, 4)), rng.normal(size=3))])
        g2 = gradset_from([(rng.normal(size=(3, 4)), rng.normal(size=3))])
        cfg = DefenseConfig(method="dgp")
        _, res1 = defend_baseline(g1, cfg)
        out2, res2 = defend_baseline(g2, cfg, residual=res1)
        effective = g2.layers[0].weight_grad + res1.layers[0].weight_grad
        np.testing.assert_array_equal(
            effective - out2.layers[0].weight_grad, res2.layers[0].weight_grad
        )

    def test_zero_noise_is_identity(self):
        rng = np.random.default_rng(8)
        grads = gradset_from([(rng.normal(size=(3, 3)), rng.normal(size=3))])
        for method in ("dp_gauss", "dp_lap"):
            out, _ = defend_baseline(grads, DefenseConfig(method=method, noise_scale=0.0))
            np.testing.assert_array_equal(out.layers[0].weight_grad, grads.layers[0].weight_grad)

    def test_noise_scale_applied(self):
        rng_check = np.random.default_rng(9)
        grads = gradset_from([(np.zeros((40, 50)), np.zeros(40))])
        for method, var in (("dp_gauss", 0.03**2), ("dp_lap", 2 * 0.03**2)):
            out, _ = defend_baseline(
                grads, DefenseConfig(method=method, noise_scale=0.03),
                rng=np.random.default_rng(rng_check.integers(2**31)),
            )
            sample_var = np.var(out.layers[0].weight_grad)
            assert sample_var == pytest.approx(var, rel=0.15)

    def test_not_a_baseline(self):
        grads = gradset_from([(np.ones((2, 2)), np.zeros(2))])
        with pytest.raises(InvalidConfig):
            defend_baseline(grads, DefenseConfig(method="svdefense"))


class TestPacketTransport:
    def test_svd_roundtrip(self):
        rng = np.random.default_rng(10)
        pkt = defend_grad_svd(rng.normal(size=(8, 6)), beta=0.3, layer_id=4)
        blob = serialize_packet(pkt)
        back = deserialize_packet(blob)
        assert back.layer_id == 4 and back.kind == "svd"
        np.testing.assert_array_equal(back.u_star, pkt.u_star)
        np.testing.assert_array_equal(back.sigma_star, pkt.sigma_star)
        np.testing.assert_array_equal(back.vt_star, pkt.vt_star)
        np.testing.assert_array_equal(back.channel_weights, pkt.channel_weights)
        assert back.entropy == pkt.entropy
        np.testing.assert_allclose(
            reconstruct_packet(back), reconstruct_packet(pkt), atol=1e-15
        )

    def test_raw_roundtrip(self):
        pkt = defense.DefensePacket(
            layer_id=3, kind="raw", orig_shape=(5,), values=np.arange(5.0)
        )
        back = deserialize_packet(serialize_packet(pkt))
        assert back.orig_shape == (5,)
        np.testing.assert_array_equal(back.values, pkt.values)

    def test_rejects_malformed_blobs(self):
        import struct

        raw = serialize_packet(
            defense.DefensePacket(layer_id=0, kind="raw", orig_shape=(12,), values=np.ones(12))
        )
        unknown_kind = raw[:8] + bytes([7]) + raw[9:]
        # a declared 5x5 raw tensor over a 12-value payload
        oversized = raw[:9] + struct.pack("<II", 5, 5) + raw[17:]
        for blob in (unknown_kind, oversized, raw[:-8], raw[:10], b""):
            with pytest.raises(InvalidInput):
                deserialize_packet(blob)

    def test_parameter_count_formula(self):
        rng = np.random.default_rng(11)
        g = rng.normal(size=(8, 6))
        pkt = defend_grad_svd(g, beta=0.3)
        k = len(pkt.sigma_star)
        assert parameter_count(pkt) == 8 + 8 * k + k + k * 6 + 1

    def test_byte_count_matches_payload(self):
        rng = np.random.default_rng(12)
        pkt = defend_grad_svd(rng.normal(size=(6, 7)), beta=0.3)
        blob = serialize_packet(pkt)
        assert len(blob) == 4 + 17 + 8 * parameter_count(pkt)


class TestDefendUpdate:
    def test_none_is_raw_identity(self):
        rng = np.random.default_rng(13)
        grads = gradset_from([(rng.normal(size=(4, 6)), rng.normal(size=4))])
        packets, residual = defend_update(grads, DefenseConfig(method="none"))
        assert residual is None
        assert [p.kind for p in packets] == ["raw", "raw"]
        back = packets_to_gradset(packets)
        np.testing.assert_array_equal(back.layers[0].weight_grad, grads.layers[0].weight_grad)
        np.testing.assert_array_equal(back.layers[0].bias_grad, grads.layers[0].bias_grad)

    def test_svdefense_splits_kinds(self):
        rng = np.random.default_rng(14)
        grads = gradset_from(
            [
                (rng.normal(size=(6, 8)), rng.normal(size=6)),
                (rng.normal(size=(3, 6)), rng.normal(size=3)),
            ]
        )
        packets, _ = defend_update(grads, DefenseConfig(method="svdefense", beta=0.3))
        assert [p.kind for p in packets] == ["svd", "raw", "svd", "raw"]
        assert [p.layer_id for p in packets] == [0, 1, 2, 3]

    def test_bias_zeroing_flag(self):
        rng = np.random.default_rng(15)
        grads = gradset_from([(rng.normal(size=(4, 4)), rng.normal(size=4))])
        packets, _ = defend_update(
            grads, DefenseConfig(method="svdefense", beta=0.3, defend_bias="zero")
        )
        np.testing.assert_array_equal(packets[1].values, np.zeros(4))

    def test_unweighted_entropy_flag(self):
        rng = np.random.default_rng(16)
        g = rng.normal(size=(6, 6))
        grads = gradset_from([(g, np.zeros(6))])
        pkts_w, _ = defend_update(grads, DefenseConfig(method="svdefense", beta=0.3))
        pkts_u, _ = defend_update(
            grads,
            DefenseConfig(method="svdefense", beta=0.3, entropy_source="unweighted"),
        )
        expected = linalg.singular_entropy(linalg.svd(g).sigma)
        assert pkts_u[0].entropy == pytest.approx(expected, abs=1e-12)
        assert pkts_u[0].entropy != pkts_w[0].entropy

    def test_config_validation(self):
        assert DefenseConfig(method="bogus").validate()
        assert DefenseConfig(beta=0.0).validate()
        assert DefenseConfig(prune_rate=1.0).validate()
        assert not DefenseConfig(method="svdefense", beta=0.3).validate()
