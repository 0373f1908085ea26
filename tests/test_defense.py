"""Defense pipeline: threshold law, channel weighting, truncation bounds,
baselines, packet transport."""

import math
import struct

import numpy as np
import pytest

from oracles import energy_rank, parameter_count, singular_entropy, truncate_by_energy
from svdlab import defense, linalg, tinynn
from svdlab.defense import (
    DefenseConfig,
    adaptive_threshold,
    channel_weights,
    defend_grad_svd,
    defend_update,
    deserialize_packet,
    packets_to_gradset,
    rank_rule,
    reconstruct_packet,
    serialize_packet,
)
from svdlab.errors import InvalidInput


def gradset_from(tensors):
    """The wire-order tensor list of (weight, bias) pairs."""
    return [np.asarray(t, float) for pair in tensors for t in pair]


def model_like(grads):
    """A model whose tensors have the shapes of the one-layer `grads`."""
    w, b = grads
    return tinynn.ModelParams([tinynn.LayerParams(w, b, tinynn.KIND_OUTPUT)])


def defended(grads, cfg, **kwargs):
    """The one-layer upload defend_update makes of `grads`, as the server
    decodes it, and the residual."""
    packets, residual = defend_update(grads, cfg, **kwargs)
    return packets_to_gradset(packets, model_like(grads)), residual


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


class TestRankRule:
    @pytest.mark.parametrize("beta", [0.3, 1000.0])  # 1000: T rounds to 1
    def test_each_spectrum_follows_the_formulas(self, beta):
        # stacked spectra at extreme scales get the entropy, threshold and
        # rank of the formulas applied one spectrum at a time; a zero
        # spectrum gets k = 0, and a tail at or below RANK_TOL is cut
        rng = np.random.default_rng(30)
        sigma = -np.sort(-rng.uniform(0.0, 2.0, size=(2, 6, 5)), axis=-1)
        sigma *= 10.0 ** rng.choice([-200.0, 0.0, 200.0], size=(2, 6, 1))
        sigma[0, 2], sigma[1, 4, 1:] = 0.0, sigma[1, 4, 0] * np.array([1.0, 1e-12, 0.0, 0.0])
        k, h = rank_rule(sigma, beta)
        assert k.shape == h.shape == (2, 6)
        for j in np.ndindex(2, 6):
            if not sigma[j].any():
                assert k[j] == 0
                continue
            assert h[j] == pytest.approx(singular_entropy(sigma[j]), abs=1e-12)
            cut = np.count_nonzero(sigma[j] > linalg.RANK_TOL * sigma[j][0])
            assert k[j] == min(energy_rank(sigma[j], adaptive_threshold(h[j], beta))[0], cut)
        if beta == 1000.0:  # T rounds to 1, so the cut alone keeps two
            assert k[1, 4] == 2

    def test_a_fraction_equal_to_t_is_not_enough(self):
        # two equal values: H = ln 2 and, at beta 1, T = 0.5 exactly; the
        # first fraction is 0.5, which does not strictly exceed T
        k, h = rank_rule(np.full((2, 2), 3.0), 1.0)
        assert adaptive_threshold(float(h[0]), 1.0) == 0.5
        assert k.tolist() == [2, 2]


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
        entropy = singular_entropy(factors.sigma)
        threshold = adaptive_threshold(entropy, 0.3)
        trunc = truncate_by_energy(factors, threshold)
        assert pkt.entropy == pytest.approx(entropy, abs=1e-12)
        assert len(pkt.sigma_star) == len(trunc.sigma)
        np.testing.assert_allclose(pkt.sigma_star, trunc.sigma)

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
            trunc = truncate_by_energy(linalg.svd(g), t)
            resid = np.linalg.norm(g - trunc.assemble())
            assert resid <= math.sqrt(1.0 - t) * np.linalg.norm(g) * (1 + 1e-9) + 1e-12

    def test_weighted_truncation_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p, q = int(rng.integers(2, 33)), int(rng.integers(2, 25))
            g = rng.normal(size=(p, q))
            t = float(rng.uniform(0.0, 0.999))
            w = channel_weights(g)
            trunc = truncate_by_energy(linalg.svd(w[:, None] * g), t)
            recon = trunc.assemble() / w[:, None]
            cond = float(w.max() / w.min())
            resid = np.linalg.norm(g - recon)
            bound = cond * math.sqrt(1.0 - t) * np.linalg.norm(g)
            assert resid <= bound * (1 + 1e-9) + 1e-12


class TestBaselines:
    def test_prune_keeps_largest(self):
        grads = gradset_from([(np.arange(1.0, 9.0).reshape(2, 4), [0.5, -2.0])])
        cfg = DefenseConfig(method="prune", prune_rate=0.9)
        out, _ = defended(grads, cfg)
        w = out[0]
        assert np.count_nonzero(w) == 1
        assert w.ravel()[7] == 8.0

    def test_prune_tie_break_lower_index(self):
        grads = gradset_from([(np.ones((2, 5)), np.zeros(2))])
        cfg = DefenseConfig(method="prune", prune_rate=0.9)
        out, _ = defended(grads, cfg)
        w = out[0].ravel()
        assert np.count_nonzero(w) == 1 and w[0] == 1.0

    def test_dgp_band(self):
        values = np.arange(1.0, 21.0)  # 20 entries
        grads = gradset_from([(values.reshape(4, 5), np.zeros(4))])
        cfg = DefenseConfig(method="dgp", dgp_small_rate=0.75, dgp_large_rate=0.05)
        out, _ = defended(grads, cfg)
        survivors = np.sort(out[0].ravel())
        survivors = survivors[survivors != 0.0]
        # smallest 15 and largest 1 pruned: the 75th..95th percentile band stays
        np.testing.assert_array_equal(survivors, [16.0, 17.0, 18.0, 19.0])

    def test_dgp_error_feedback_conservation(self):
        rng = np.random.default_rng(6)
        grads = gradset_from([(rng.normal(size=(4, 6)), rng.normal(size=4))])
        cfg = DefenseConfig(method="dgp")
        out, residual = defended(grads, cfg)
        for g, o, r in zip(grads, out, residual):
            np.testing.assert_array_equal(g - o, r)

    def test_dgp_residual_reinjected(self):
        rng = np.random.default_rng(7)
        g1 = gradset_from([(rng.normal(size=(3, 4)), rng.normal(size=3))])
        g2 = gradset_from([(rng.normal(size=(3, 4)), rng.normal(size=3))])
        cfg = DefenseConfig(method="dgp")
        _, res1 = defended(g1, cfg)
        out2, res2 = defended(g2, cfg, residual=res1)
        effective = g2[0] + res1[0]
        np.testing.assert_array_equal(effective - out2[0], res2[0])

    def test_zero_noise_is_identity(self):
        rng = np.random.default_rng(8)
        grads = gradset_from([(rng.normal(size=(3, 3)), rng.normal(size=3))])
        for method in ("dp_gauss", "dp_lap"):
            out, _ = defended(grads, DefenseConfig(method=method, noise_scale=0.0),
                              rng=np.random.default_rng(0))
            np.testing.assert_array_equal(out[0], grads[0])

    @pytest.mark.parametrize("method", defense.NOISE_METHODS)
    def test_noise_methods_need_a_stream(self, method):
        # a shared fallback stream would give every client the same noise
        grads = gradset_from([(np.ones((3, 4)), np.ones(3))])
        with pytest.raises(InvalidInput, match="noise stream"):
            defend_update(grads, DefenseConfig(method=method))

    def test_noise_scale_applied(self):
        rng_check = np.random.default_rng(9)
        grads = gradset_from([(np.zeros((40, 50)), np.zeros(40))])
        for method, var in (("dp_gauss", 0.03**2), ("dp_lap", 2 * 0.03**2)):
            out, _ = defended(
                grads, DefenseConfig(method=method, noise_scale=0.03),
                rng=np.random.default_rng(rng_check.integers(2**31)),
            )
            sample_var = np.var(out[0])
            assert sample_var == pytest.approx(var, rel=0.15)


# 1.5 and -0.0 are stored, +0.0 is not: a 2-byte bitmap and 2 values
SPARSE_TEN = np.array([0.0, 1.5, 0.0, 0.0, -0.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def raw_packet(values):
    return defense.DefensePacket(layer_id=0, kind="raw", orig_shape=values.shape, values=values)


def wire_blob(code, p, q, k, payload):
    """A packet of kind `code` with a correct length prefix."""
    return struct.pack("<IIBIII", 21 + len(payload), 0, code, p, q, k) + payload


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

    def test_raw_picks_the_shorter_encoding_bit_exactly(self):
        blob = serialize_packet(raw_packet(SPARSE_TEN))
        assert (blob[8], len(blob)) == (2, 21 + 2 + 16)
        assert deserialize_packet(blob).values.tobytes() == SPARSE_TEN.tobytes()
        dense = serialize_packet(raw_packet(np.arange(1.0, 11.0)))
        assert (dense[8], len(dense)) == (0, 21 + 80)

    @pytest.mark.parametrize("edit", ["pad bit", "mask count", "stored +0.0"])
    def test_rejects_non_canonical_sparse_blobs(self, edit):
        blob = bytearray(serialize_packet(raw_packet(SPARSE_TEN)))
        if edit == "pad bit":  # entries 8 and 9 fill the top 2 bits of the second byte
            blob[22] |= 0x01
        elif edit == "mask count":  # marks entry 0 stored: 3 set bits for k = 2
            blob[21] |= 0x80
        else:  # the stored 1.5 becomes +0.0
            blob[23:31] = bytes(8)
        with pytest.raises(InvalidInput):
            deserialize_packet(bytes(blob))

    def test_rejects_a_sparse_blob_no_shorter_than_dense(self):
        # one stored entry of one: 1 + 8 bytes against 8 dense
        with pytest.raises(InvalidInput):
            deserialize_packet(wire_blob(2, 1, 0, 1, bytes([0x80]) + struct.pack("<d", 1.0)))

    def test_rejects_a_dense_blob_sparse_would_shorten(self):
        assert serialize_packet(raw_packet(np.zeros(10)))[8] == 2
        with pytest.raises(InvalidInput):
            deserialize_packet(wire_blob(0, 10, 0, 0, bytes(80)))

    @pytest.mark.parametrize("weight", [0.0, -0.0, -1.0, np.inf, np.nan])
    def test_rejects_svd_weights_not_finite_and_positive(self, weight):
        pkt = defend_grad_svd(np.random.default_rng(13).normal(size=(4, 5)), beta=0.3)
        pkt.channel_weights[2] = weight
        with pytest.raises(InvalidInput):
            deserialize_packet(serialize_packet(pkt))

    @pytest.mark.parametrize("entropy", [np.nan, np.inf, -np.inf, -3.0, -1e-300, 1e300,
                                         math.log(4) * (1 + 1e-11)])
    def test_rejects_svd_entropy_outside_its_range(self, entropy):
        # H of a 4 x 5 spectrum lies in [0, ln 4]; a forged H would set the
        # client's aggregation weight for the tensor
        pkt = defend_grad_svd(np.random.default_rng(13).normal(size=(4, 5)), beta=0.3)
        pkt.entropy = entropy
        with pytest.raises(InvalidInput, match="entropy"):
            deserialize_packet(serialize_packet(pkt))

    @pytest.mark.parametrize("p, q", [(2, 2), (3, 2), (5, 7), (32, 64), (200, 203)])
    def test_accepts_the_largest_honest_entropy(self, p, q):
        # an identity's flat spectrum gives H = ln(min(p, q)) up to round-off
        pkt = defend_grad_svd(np.eye(p, q), beta=0.3)
        assert pkt.entropy == pytest.approx(math.log(min(p, q)), rel=1e-14)
        assert deserialize_packet(serialize_packet(pkt)).entropy == pkt.entropy

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
        back = packets_to_gradset(packets, model_like(grads))
        np.testing.assert_array_equal(back[0], grads[0])
        np.testing.assert_array_equal(back[1], grads[1])

    def test_decoder_checks_decoded_shapes(self):
        # factors whose product has another shape than the one the packet
        # declares are refused, not handed on
        rng = np.random.default_rng(17)
        grads = gradset_from([(rng.normal(size=(4, 6)), rng.normal(size=4))])
        packets, _ = defend_update(grads, DefenseConfig(method="svdefense", beta=0.3))
        k = len(packets[0].sigma_star)
        packets[0].vt_star = np.ones((k, 5))
        with pytest.raises(InvalidInput):
            packets_to_gradset(packets, model_like(grads))

    def test_decoder_error_names_the_model_shape(self):
        rng = np.random.default_rng(18)
        grads = gradset_from([(rng.normal(size=(4, 6)), rng.normal(size=4))])
        packets, _ = defend_update([rng.normal(size=(4, 5)), grads[1]],
                                   DefenseConfig(method="none"))
        with pytest.raises(InvalidInput, match=r"tensor 0 .* the model's is \(4, 6\)"):
            packets_to_gradset(packets, model_like(grads))

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

    def test_config_validation(self):
        assert DefenseConfig(method="bogus").validate()
        assert DefenseConfig(beta=0.0).validate()
        assert DefenseConfig(prune_rate=1.0).validate()
        assert not DefenseConfig(method="svdefense", beta=0.3).validate()
