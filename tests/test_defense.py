"""Defense pipeline: threshold law, channel weighting, truncation bounds,
baselines, packet transport."""

import math
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oracles import (HEADER_BYTES, energy_rank, kind_defense, parameter_count, reference_pruned,
                     singular_entropy, truncate_by_energy, wire_blob, wire_bytes)
from svdlab import cli, defense, flsim, linalg, tinynn
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
from svdlab.errors import InvalidInput, NumericalFailure


def gradset_from(tensors):
    """The wire-order tensor list of (weight, bias) pairs."""
    return [np.asarray(t, float) for pair in tensors for t in pair]


def model_like(grads):
    """A model whose tensors have the shapes of the one-layer `grads`."""
    w, b = grads
    return tinynn.ModelParams([tinynn.LayerParams(w, b)])


NONE, SVDEFENSE = DefenseConfig(), DefenseConfig(method="svdefense")


DEAD_ROWS = [1, 17]


def with_dead_rows(g):
    """A copy of the weight update `g` whose DEAD_ROWS are exactly zero."""
    g = np.array(g, dtype=float)
    g[DEAD_ROWS] = 0.0
    return g


def defended(grads, cfg, seed=0, **kwargs):
    """The one-layer upload defend_update makes of `grads`, as the server
    decodes it, and the residual."""
    packets, residual = defend_update(grads, cfg, seed, **kwargs)
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

    def test_at_most_one_nonzero_value_has_entropy_plus_zero(self):
        # no spread, no entropy: +0.0, never the bits of -0.0
        for sigma in ([3.0], [3.0, 0.0], np.zeros(3)):
            h = rank_rule(sigma, 0.3)[1]
            assert h == 0.0 and not np.signbit(h)
        thin = defend_grad_svd(np.random.default_rng(31).normal(size=(32, 1)), beta=0.3)
        assert thin.entropy == 0.0 and not np.signbit(thin.entropy)


class TestChannelWeights:
    def test_pythagorean_rows(self):
        # relative row norms, floored, then scaled exactly to a maximum in [0.5, 1)
        w = channel_weights(np.array([[3.0, 4.0], [0.0, 0.0]]))
        assert w.tolist() == [0.625, 1e-8 * 0.625]

    def test_all_zero_rows(self):
        w = channel_weights(np.zeros((3, 4)))
        assert np.all(w == w[0]) and 0.5 <= w.max() < 1.0

    def test_tiny_rows_keep_their_norms(self):
        # squares of 1e-170 underflow; the power-of-two scaling gives them the
        # weights of a copy whose squares do not
        g = np.full((3, 4), 1e-170)
        np.testing.assert_array_equal(channel_weights(g), channel_weights(np.ldexp(g, 600)))

    def test_a_stack_is_weighted_slice_by_slice(self):
        rng = np.random.default_rng(8)
        g = rng.normal(size=(2, 3, 5, 7)) * 10.0 ** rng.integers(-300, 300, (2, 3, 1, 1))
        g[1, 2] = 0.0
        w = channel_weights(g)
        for i, j in np.ndindex(2, 3):
            np.testing.assert_array_equal(w[i, j], channel_weights(g[i, j]))

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

    def test_zero_matrix_keeps_the_rank_rules_rank(self):
        # the one rank rule: a zero spectrum keeps nothing, as the replay assumes
        pkt = defend_grad_svd(np.zeros((4, 5)), beta=0.3)
        assert len(pkt.sigma_star) == rank_rule(np.zeros(1), 0.3)[0] == 0
        assert (pkt.u_star.shape, pkt.vt_star.shape) == ((4, 0), (0, 5))
        assert pkt.entropy == 0.0
        np.testing.assert_array_equal(reconstruct_packet(pkt), np.zeros((4, 5)))

    @pytest.mark.parametrize("beta", [0.3, 3.0, 10.0])
    def test_power_of_two_scaling_is_exact(self, beta):
        # the weights are scale-free and linalg.svd prescales, so 2**k g
        # changes only sigma_star, by 2**k, across the double range
        rng = np.random.default_rng(0)
        full = rng.normal(size=(32, 64))
        rank5 = rng.normal(size=(32, 5)) @ rng.normal(size=(5, 64))
        for g in (full, rank5, with_dead_rows(rank5)):
            ref = defend_grad_svd(g, beta)
            back = reconstruct_packet(ref)
            for k in (-1000, -600, -300, 300, 600, 1000):
                pkt = defend_grad_svd(np.ldexp(g, k), beta)
                assert (len(pkt.sigma_star), pkt.entropy) == (len(ref.sigma_star), ref.entropy)
                np.testing.assert_array_equal(reconstruct_packet(pkt), np.ldexp(back, k))

    @pytest.mark.parametrize("beta", [0.3, 10.0, 1000.0])
    def test_dead_rows_rebuild_as_exact_zeros(self, beta):
        # a channel the client never touched (a ReLU unit no sample activates)
        # comes back through the wire as zeros, not as LAPACK rounding noise
        # divided by the 1e-8 weight floor
        rng = np.random.default_rng(0)
        g = with_dead_rows(rng.normal(size=(32, 5)) @ rng.normal(size=(5, 64)))
        sent = deserialize_packet(serialize_packet(defend_grad_svd(g, beta)), g.shape, SVDEFENSE)
        back = reconstruct_packet(sent)
        assert np.all(back[DEAD_ROWS] == 0.0)
        assert np.all(back[np.any(g, axis=1)].any(axis=1))

    def test_subnormal_update_has_no_spectrum(self):
        # w < 1 rounds entries of 5e-324 to zero: the one underflow left
        with pytest.raises(NumericalFailure, match="all singular values are zero"):
            defend_grad_svd(np.full((3, 4), 5e-324), beta=0.3)

    def test_spectrum_beyond_the_doubles_raises(self):
        # w = 1/2, so sigma = 2**1019 sqrt(32 * 64) overflows; a numpy warning
        # would fail the test before the NumericalFailure
        with pytest.raises(NumericalFailure, match="the update's spectrum is not finite"):
            defend_grad_svd(np.full((32, 64), 2.0**1020), beta=0.3)

    @pytest.mark.parametrize("shape", [(1, 5), (6, 1)])
    def test_thin_matrices_keep_rank_one_losslessly(self, shape):
        # one singular value: H = 0, T = 0 and k = 1, so the factors are the
        # matrix; defend_update factors thin weights like any other
        g = np.random.default_rng(sum(shape)).normal(size=shape)
        bias = np.ones(shape[0])
        (pkt, raw), _ = defend_update([g, bias], DefenseConfig(method="svdefense", beta=0.3),
                                      seed=0)
        assert raw.values is not None and pkt.values is None
        assert len(pkt.sigma_star) == 1 and pkt.entropy == 0.0
        cond = float(pkt.channel_weights.max() / pkt.channel_weights.min())
        np.testing.assert_allclose(reconstruct_packet(pkt), g, rtol=0,
                                   atol=1e-14 * cond * np.abs(g).max())
        back = deserialize_packet(serialize_packet(pkt), shape, SVDEFENSE)
        np.testing.assert_array_equal(reconstruct_packet(back), reconstruct_packet(pkt))

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

    @pytest.mark.parametrize("shape", [(32, 64), (32,), (4, 32), (4,)])
    def test_cuts_inside_tie_groups_match_the_reference(self, shape):
        """The default model's shapes, drawn from few magnitudes so that the
        cuts fall inside tie groups: at prune 0.9, at dgp's defaults, at
        rates that cut 0, 1 and n - 1 entries from either end, and at the
        end of the zeros and of the largest magnitudes, between two groups."""
        entries = [0.0, -0.0, 1e-300, 1.0, -1.0, 2.5, -2.5]
        x = np.random.default_rng(10).choice(entries, size=shape)
        n = x.size
        small_counts = (0, 1, n - 1, np.count_nonzero(x == 0.0))
        large_counts = (0, 1, n - 1, np.count_nonzero(np.abs(x) == 2.5))
        cases = [(0.9, 0.0), (0.75, 0.05), *(((c + 0.5) / n, 0.0) for c in small_counts),
                 *((0.0, (c + 0.5) / n) for c in large_counts)]
        if n == 2048:  # every cut splits a tie group
            s = np.sort(np.abs(x), axis=None)
            assert all(s[m - 1] == s[m] for m in (1, 1536, 1843, 1946, 2047))
        for small, large in cases:
            want = reference_pruned(x, small, large)
            assert defense._pruned(x, small, large).tobytes() == want.tobytes()

    @pytest.mark.parametrize("method, carried", [("prune", False), ("dgp", False), ("dgp", True)])
    def test_packets_and_carry_own_their_values(self, method, carried):
        rng = np.random.default_rng(11)
        grads = gradset_from([(rng.normal(size=(4, 6)), rng.normal(size=4))])
        residual = [rng.normal(size=t.shape) for t in grads] if carried else None
        inputs = grads + (residual or [])
        before = [t.copy() for t in inputs]
        packets, carry = defend_update(grads, DefenseConfig(method=method), 0, residual=residual)
        for written in [p.values for p in packets] + (carry or []):
            written[...] = 7.0
        for t, b in zip(inputs, before):
            np.testing.assert_array_equal(t, b)

    def test_zero_noise_is_identity(self):
        rng = np.random.default_rng(8)
        grads = gradset_from([(rng.normal(size=(3, 3)), rng.normal(size=3))])
        for method in ("dp_gauss", "dp_lap"):
            out, _ = defended(grads, DefenseConfig(method=method, noise_scale=0.0), seed=0)
            np.testing.assert_array_equal(out[0], grads[0])

    @pytest.mark.parametrize("method", defense.NOISE_METHODS)
    def test_noise_comes_from_the_named_seed(self, method):
        # the seed names the upload's own stream, drawn tensor by tensor in
        # wire order: the same seed repeats the noise, another changes it
        rng = np.random.default_rng(19)
        grads = gradset_from([(rng.normal(size=(3, 4)), rng.normal(size=3)),
                              (rng.normal(size=(2, 3)), rng.normal(size=2))])
        cfg = DefenseConfig(method=method, noise_scale=0.1)
        once, again, other = (defend_update(grads, cfg, seed)[0] for seed in ([5, 6], [5, 6], 7))
        ref = np.random.default_rng([5, 6])
        for t, a, b, c in zip(grads, once, again, other, strict=True):
            np.testing.assert_array_equal(a.values, t + defense.noise(ref, cfg, t.shape))
            np.testing.assert_array_equal(a.values, b.values)
            assert not (a.values == c.values).any()

    @pytest.mark.parametrize("method", ["none", "svdefense", "prune", "dgp"])
    def test_noise_free_methods_build_no_stream(self, method):
        # np.random.default_rng refuses -1, so the seed must never be read
        rng = np.random.default_rng(20)
        grads = gradset_from([(rng.normal(size=(4, 5)), rng.normal(size=4))])
        with pytest.raises(ValueError):
            np.random.default_rng(-1)
        cfg = DefenseConfig(method=method)
        for got, want in zip(defend_update(grads, cfg, -1)[0], defend_update(grads, cfg, 0)[0],
                             strict=True):
            assert serialize_packet(got) == serialize_packet(want)

    def test_noise_scale_applied(self):
        rng_check = np.random.default_rng(9)
        grads = gradset_from([(np.zeros((40, 50)), np.zeros(40))])
        for method, var in (("dp_gauss", 0.03**2), ("dp_lap", 2 * 0.03**2)):
            out, _ = defended(
                grads, DefenseConfig(method=method, noise_scale=0.03),
                seed=rng_check.integers(2**31),
            )
            sample_var = np.var(out[0])
            assert sample_var == pytest.approx(var, rel=0.15)


# 1.5 and -0.0 are stored, +0.0 is not: a 2-byte bitmap and 2 values
SPARSE_TEN = np.array([0.0, 1.5, 0.0, 0.0, -0.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def raw_packet(values):
    return defense.DefensePacket(values=values)


def svd_packet(p, q, sigma):
    """An svd packet of a p x q tensor around the spectrum `sigma`: factors
    of ones, unit channel weights and an entropy that p, q >= 2 allow."""
    k = len(sigma)
    return defense.DefensePacket(channel_weights=np.ones(p), u_star=np.ones((p, k)),
                                 sigma_star=np.array(sigma, dtype=float),
                                 vt_star=np.ones((k, q)), entropy=0.5)


class TestPacketTransport:
    def test_svd_roundtrip(self):
        rng = np.random.default_rng(10)
        pkt = defend_grad_svd(rng.normal(size=(8, 6)), beta=0.3)
        blob = serialize_packet(pkt)
        back = deserialize_packet(blob, (8, 6), SVDEFENSE)
        assert back.values is None and blob[:4] == struct.pack("<I", len(pkt.sigma_star))
        assert blob[HEADER_BYTES["svd"]] == 0xFF  # u_star's mask: its first 8 entries are stored
        np.testing.assert_array_equal(back.u_star, pkt.u_star)
        np.testing.assert_array_equal(back.sigma_star, pkt.sigma_star)
        np.testing.assert_array_equal(back.vt_star, pkt.vt_star)
        np.testing.assert_array_equal(back.channel_weights, pkt.channel_weights)
        assert back.entropy == pkt.entropy
        np.testing.assert_allclose(
            reconstruct_packet(back), reconstruct_packet(pkt), atol=1e-15
        )

    def test_raw_roundtrip(self):
        back = deserialize_packet(serialize_packet(raw_packet(np.arange(5.0))), (5,), NONE)
        assert back.values.shape == (5,)
        np.testing.assert_array_equal(back.values, np.arange(5.0))

    def test_rejects_malformed_blobs(self):
        raw = serialize_packet(raw_packet(np.ones(12)))
        assert raw == wire_blob(bytes([0xFF, 0xF0]) + np.ones(12).tobytes())
        for blob in (raw[:-8], raw[:10], raw[:1], b""):
            with pytest.raises(InvalidInput):
                deserialize_packet(blob, (12,), NONE)
        for shape in ((5, 5), (2, 4), (11,)):  # 12 set bits for a tensor of 25, 8 or 11
            with pytest.raises(InvalidInput):
                deserialize_packet(raw, shape, NONE)
        assert deserialize_packet(raw, (3, 4), NONE).values.tobytes() == np.ones(12).tobytes()

    def test_raw_is_its_bitmap_and_stored_values_bit_exactly(self):
        # no header: the bitmap of entries 1 and 4, then 1.5 and -0.0
        blob = serialize_packet(raw_packet(SPARSE_TEN))
        assert blob == wire_blob(bytes([0b01001000, 0]) + struct.pack("<2d", 1.5, -0.0))
        assert len(blob) == HEADER_BYTES["raw"] + 2 + 16
        assert deserialize_packet(blob, (10,), NONE).values.tobytes() == SPARSE_TEN.tobytes()
        values = np.arange(1.0, 11.0)
        full = serialize_packet(raw_packet(values))
        assert full == wire_blob(bytes([0xFF, 0xC0]) + values.tobytes())
        assert len(full) == HEADER_BYTES["raw"] + 2 + 80
        assert deserialize_packet(full, (10,), NONE).values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("edit", ["pad bit", "mask count", "stored +0.0"])
    def test_rejects_non_canonical_sparse_blobs(self, edit):
        blob = bytearray(serialize_packet(raw_packet(SPARSE_TEN)))
        at = HEADER_BYTES["raw"]
        if edit == "pad bit":  # entries 8 and 9 fill the top 2 bits of the second byte
            blob[at + 1] |= 0x01
        elif edit == "mask count":  # marks entry 0 stored: 3 set bits and 2 values
            blob[at] |= 0x80
        else:  # the stored 1.5 becomes +0.0
            blob[at + 2 : at + 10] = bytes(8)
        with pytest.raises(InvalidInput):
            deserialize_packet(bytes(blob), (10,), NONE)

    def test_accepts_a_fully_stored_blob(self):
        # one stored entry of one: a 1-byte bitmap and the value
        blob = wire_blob(bytes([0x80]) + struct.pack("<d", 1.0))
        assert serialize_packet(raw_packet(np.array([1.0]))) == blob
        assert deserialize_packet(blob, (1,), NONE).values.tobytes() == np.array([1.0]).tobytes()

    def test_rejects_the_retired_dense_form(self):
        # a retired packet form carried the n values alone, without a bitmap;
        # read as one, their first bytes are a mask that fixes another length
        dense = np.arange(1.0, 11.0).tobytes()
        for blob, shape, cfg in ((dense, (10,), NONE), (dense, (2, 5), NONE),
                                 (wire_blob(dense, k=0), (2, 5), SVDEFENSE)):
            with pytest.raises(InvalidInput, match="bytes"):
                deserialize_packet(blob, shape, cfg)

    @pytest.mark.parametrize("weight", [0.0, -0.0, -1.0, np.inf, np.nan])
    def test_rejects_svd_weights_not_finite_and_positive(self, weight):
        pkt = defend_grad_svd(np.random.default_rng(13).normal(size=(4, 5)), beta=0.3)
        pkt.channel_weights[2] = weight
        with pytest.raises(InvalidInput):
            deserialize_packet(serialize_packet(pkt), (4, 5), SVDEFENSE)

    @pytest.mark.parametrize("bad", [np.nan, -np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("factor", ["u_star", "sigma_star", "vt_star"])
    def test_rejects_svd_factors_not_finite(self, factor, bad):
        # a forged factor decodes to a non-finite tensor in the aggregate
        pkt = defend_grad_svd(np.random.default_rng(13).normal(size=(4, 5)), beta=0.3)
        getattr(pkt, factor).flat[-1] = bad
        with pytest.raises(InvalidInput, match="factors"):
            deserialize_packet(serialize_packet(pkt), (4, 5), SVDEFENSE)

    @pytest.mark.parametrize("at", [0, 1, 4])
    @pytest.mark.parametrize("form", ["dense", "sparse"])  # the values, not the encoding
    def test_rejects_a_raw_nan_and_keeps_infinities(self, form, at):
        values = SPARSE_TEN.copy() if form == "sparse" else np.arange(1.0, 11.0)
        values[at] = np.inf  # noise of scale 1e308 draws these honestly
        values[at + 2] = -np.inf
        blob = serialize_packet(raw_packet(values))
        assert len(blob) == wire_bytes(raw_packet(values))
        assert deserialize_packet(blob, (10,), NONE).values.tobytes() == values.tobytes()
        values[at] = np.nan
        with pytest.raises(InvalidInput, match="NaN"):
            deserialize_packet(serialize_packet(raw_packet(values)), (10,), NONE)

    @pytest.mark.parametrize("entropy", [np.nan, np.inf, -np.inf, -3.0, -1e-300, 1e300,
                                         math.log(4) * (1 + 1e-11)])
    def test_rejects_svd_entropy_outside_its_range(self, entropy):
        # H of a 4 x 5 spectrum lies in [0, ln 4]; a forged H would set the
        # client's aggregation weight for the tensor
        pkt = defend_grad_svd(np.random.default_rng(13).normal(size=(4, 5)), beta=0.3)
        pkt.entropy = entropy
        with pytest.raises(InvalidInput, match="entropy"):
            deserialize_packet(serialize_packet(pkt), (4, 5), SVDEFENSE)

    @pytest.mark.parametrize("p, q", [(2, 2), (3, 2), (5, 7), (32, 64), (200, 203)])
    def test_accepts_the_largest_honest_entropy(self, p, q):
        # an identity's flat spectrum gives H = ln(min(p, q)) up to round-off
        pkt = defend_grad_svd(np.eye(p, q), beta=0.3)
        assert pkt.entropy == pytest.approx(math.log(min(p, q)), rel=1e-14)
        assert deserialize_packet(serialize_packet(pkt), (p, q), SVDEFENSE).entropy == pkt.entropy

    # no defender writes these: it keeps k <= min(p, q) of LAPACK's spectrum,
    # which is non-negative and non-increasing
    @pytest.mark.parametrize("sigma", [[4.0, 3.0, 2.0, 1.0], [1.0, 2.0, -3.0, 0.5]])
    def test_rejects_more_values_than_min_p_q(self, sigma):
        with pytest.raises(InvalidInput, match="sigma_star"):
            deserialize_packet(serialize_packet(svd_packet(3, 3, sigma)), (3, 3), SVDEFENSE)

    @pytest.mark.parametrize("sigma", [[3.0, 2.0, -1.0], [-0.5], [2.0, -5e-324]])
    def test_rejects_a_negative_singular_value(self, sigma):
        with pytest.raises(InvalidInput, match="sigma_star"):
            deserialize_packet(serialize_packet(svd_packet(3, 3, sigma)), (3, 3), SVDEFENSE)

    @pytest.mark.parametrize("sigma", [[1.0, 2.0, 0.5], [3.0, 3.0, 3.0000000000000004]])
    def test_rejects_an_increasing_spectrum(self, sigma):
        with pytest.raises(InvalidInput, match="sigma_star"):
            deserialize_packet(serialize_packet(svd_packet(3, 3, sigma)), (3, 3), SVDEFENSE)

    def test_accepts_equal_and_subnormal_kept_values(self):
        # the kept values of a near-underflow update can be subnormal
        sigma = np.array([1.0, 1.0, 5e-324])
        back = deserialize_packet(serialize_packet(svd_packet(3, 4, sigma)), (3, 4), SVDEFENSE)
        assert back.sigma_star.tobytes() == sigma.tobytes()

    def test_parameter_count_formula(self):
        rng = np.random.default_rng(11)
        g = rng.normal(size=(8, 6))
        pkt = defend_grad_svd(g, beta=0.3)
        k = len(pkt.sigma_star)
        assert parameter_count(pkt) == 8 + 8 * k + k + k * 6 + 1

    def test_zero_update_travels_as_rank_zero(self):
        # 4 header bytes (k = 0), then the block of 5 entries, all +0.0 (4
        # dead channels' weights and the entropy): its one mask byte, no value
        grads = gradset_from([(np.zeros((4, 5)), np.zeros(4))])
        packets, _ = defend_update(grads, DefenseConfig(method="svdefense"), seed=0)
        blob = serialize_packet(packets[0])
        assert blob == wire_blob(bytes([0x00]), k=0)
        assert len(blob) == HEADER_BYTES["svd"] + 1 == 5
        back = [deserialize_packet(blob, (4, 5), SVDEFENSE),
                deserialize_packet(serialize_packet(packets[1]), (4,), SVDEFENSE)]
        assert back[0].u_star.shape == (4, 0)
        assert back[0].channel_weights.tobytes() == bytes(32)
        decoded = packets_to_gradset(back, model_like(grads))
        np.testing.assert_array_equal(decoded[0], np.zeros((4, 5)))
        np.testing.assert_array_equal(decoded[1], np.zeros(4))

    def test_byte_count_matches_payload(self):
        # one mask bit for each of the k (p + q + 1) + p + 1 floats; a dead
        # row costs its k + 1 mask bits, neither its u_star row nor its weight
        rng = np.random.default_rng(12)
        g = rng.normal(size=(6, 7))
        pkt = defend_grad_svd(g, beta=0.3)
        k = len(pkt.sigma_star)
        mask = -(-(k * (6 + 7 + 1) + 6 + 1) // 8)
        assert len(serialize_packet(pkt)) == HEADER_BYTES["svd"] + mask + 8 * parameter_count(pkt)
        assert parameter_count(pkt) == 6 + 6 * k + k + k * 7 + 1
        g[[1, 4]] = 0.0
        pkt = defend_grad_svd(g, beta=0.3)
        k = len(pkt.sigma_star)
        mask = -(-(k * (6 + 7 + 1) + 6 + 1) // 8)
        assert parameter_count(pkt) == 4 + 4 * k + k + k * 7 + 1
        assert len(serialize_packet(pkt)) == HEADER_BYTES["svd"] + mask + 8 * parameter_count(pkt)

    def test_a_huge_header_rank_allocates_nothing(self):
        # k = 2**32 - 1 asks for a mask of 32 * k bits (16 GiB); the parser
        # refuses the blob before it reads or allocates one
        blob = wire_blob(bytes(64), k=2**32 - 1)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInput, match="mask short"):
                deserialize_packet(blob, (32, 64), SVDEFENSE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16


class TestPacketKind:
    """The run's defense fixes each tensor's kind (defense.factored): the
    defender writes that kind and the server parses only that kind."""

    @pytest.mark.parametrize("method", defense.METHODS)
    def test_the_defender_sends_the_kind_the_server_parses(self, method):
        cfg = DefenseConfig(method=method)
        grads = gradset_from([(np.random.default_rng(17).normal(size=(4, 5)), np.ones(4))])
        packets, _ = defend_update(grads, cfg, seed=0)
        for packet, t in zip(packets, grads, strict=True):
            assert (packet.values is None) == defense.factored(t.shape, cfg)
            back = deserialize_packet(serialize_packet(packet), t.shape, cfg)
            assert (back.values is None) == (packet.values is None)

    def test_svdefense_refuses_a_weight_sent_raw(self):
        # k u32 reads the first 4 bytes of the 256-byte bitmap: a mask of
        # 2**32 - 1 ranks that the blob cuts short
        g = np.random.default_rng(18).normal(size=(32, 64))
        blob = serialize_packet(raw_packet(g))
        assert deserialize_packet(blob, g.shape, NONE).values.tobytes() == g.tobytes()
        with pytest.raises(InvalidInput) as refused:
            deserialize_packet(blob, g.shape, SVDEFENSE)
        assert len(str(refused.value).splitlines()) == 1

    @pytest.mark.parametrize("method", [m for m in defense.METHODS if m != "svdefense"])
    def test_other_defenses_refuse_a_weight_sent_as_factors(self, method):
        g = np.random.default_rng(18).normal(size=(32, 64))
        blob = serialize_packet(defend_grad_svd(g, beta=0.3))
        assert deserialize_packet(blob, g.shape, SVDEFENSE).values is None
        with pytest.raises(InvalidInput) as refused:
            deserialize_packet(blob, g.shape, DefenseConfig(method=method))
        assert len(str(refused.value).splitlines()) == 1


# the stored values of MASK: u_star's entries 0 and 2, the 3 channel
# weights, sigma and vt_star's entries 0 and 1
STORED = [1.0, 2.0, 0.5, 1.0, 0.75, 3.0, 1.0, -1.0]
MASK = bytes([0b10111111, 0b10000000])


def masked_blob(k=1, mask=MASK, values=STORED) -> bytes:
    """A hand-written svd packet of a 3 x 4 tensor: the header, the block's
    mask bytes, then the stored f64 values. By default the 12 entries of
    the block (u_star, weights, sigma, vt_star, entropy) are canonical:
    u_star (1, +0.0, 2), the weights 0.5, 1.0 and 0.75, sigma 3, the
    vt_star row (1, -1, 0, 0) and the entropy 0."""
    return wire_blob(mask + np.array(values, dtype="<f8").tobytes(), k=k)


FIELDS = ("values", "channel_weights", "u_star", "sigma_star", "vt_star", "entropy")


def assert_travels_bit_exactly(packet):
    """The packet's blob has the oracle's size, and it parses, against the
    shape of its tensor, to every field of the sent packet bit for bit, the
    signs of its zeros included, so it re-serializes unchanged."""
    blob = serialize_packet(packet)
    if packet.values is not None:
        shape = packet.values.shape
    else:
        shape = packet.u_star.shape[0], packet.vt_star.shape[1]
    back = deserialize_packet(blob, shape, kind_defense(packet))
    assert len(blob) == wire_bytes(packet)
    for name in FIELDS:
        sent, got = getattr(packet, name), getattr(back, name)
        assert (sent is None) == (got is None), name
        if sent is not None:
            sent, got = np.asarray(sent, dtype=np.float64), np.asarray(got)
            assert (got.dtype, got.shape, got.tobytes()) == (sent.dtype, sent.shape,
                                                             sent.tobytes()), name
    assert serialize_packet(back) == blob


def capture_uploads(monkeypatch) -> list:
    """The list that every later defense.defend_update call adds its
    packets to."""
    defend, packets = defense.defend_update, []

    def keep(*args, **kwargs):
        out = defend(*args, **kwargs)
        packets.extend(out[0])
        return out

    monkeypatch.setattr(defense, "defend_update", keep)
    return packets


def assert_uploads_travel_bit_exactly(packets, uploads):
    """`uploads` one-hidden-layer uploads, every packet of which travels bit
    exactly, among them factored ones with dead rows."""
    assert len(packets) == 4 * uploads
    for p in packets:
        assert_travels_bit_exactly(p)
    assert any(not p.u_star.any(axis=1).all() for p in packets if p.values is None)


class TestSvdRowMask:
    """The svd packet's sparse block: the mask of its stored entries (one
    bit per u_star row at k = 1, per weight, kept value, vt_star entry and
    the entropy), then the stored entries."""

    def test_hand_written_blob_parses(self):
        back = deserialize_packet(masked_blob(), (3, 4), SVDEFENSE)
        assert back.channel_weights.tobytes() == np.array([0.5, 1.0, 0.75]).tobytes()
        assert back.u_star.tobytes() == np.array([[1.0], [0.0], [2.0]]).tobytes()
        assert back.vt_star.tobytes() == np.array([[1.0, -1.0, 0.0, 0.0]]).tobytes()
        assert serialize_packet(back) == masked_blob()

    @pytest.mark.parametrize("u_entry", [0.0, -0.0])
    def test_a_stored_u_star_entry_is_never_plus_zero(self, u_entry):
        # entry 2 stored as +0.0 is refused; as -0.0 it is the canonical
        # form of a u_star whose entry 2 is -0.0, and travels with its sign
        blob = masked_blob(values=[1.0, u_entry, *STORED[2:]])
        if not np.signbit(u_entry):
            with pytest.raises(InvalidInput, match=r"\+0\.0"):
                deserialize_packet(blob, (3, 4), SVDEFENSE)
            return
        back = deserialize_packet(blob, (3, 4), SVDEFENSE)
        assert back.u_star.tobytes() == np.array([[1.0], [0.0], [-0.0]]).tobytes()
        assert_travels_bit_exactly(back)

    @pytest.mark.parametrize("at", range(len(STORED)))
    def test_a_stored_entry_is_never_plus_zero_anywhere(self, at):
        # u_star, a weight, sigma or vt_star: the block refuses them alike
        values = list(STORED)
        values[at] = 0.0
        with pytest.raises(InvalidInput, match=r"\+0\.0"):
            deserialize_packet(masked_blob(values=values), (3, 4), SVDEFENSE)

    @pytest.mark.parametrize("rows", [0b10000001, 0b10001000])
    def test_rejects_mask_pad_bits(self, rows):
        # 12 entries use the top 4 bits of the second mask byte
        with pytest.raises(InvalidInput, match="pad bit"):
            deserialize_packet(masked_blob(mask=MASK[:1] + bytes([rows])), (3, 4), SVDEFENSE)

    @pytest.mark.parametrize("edit", ["extra row bit", "trailing value", "missing value",
                                      "no mask"])
    def test_rejects_a_length_the_mask_does_not_fix(self, edit):
        blob = {"extra row bit": masked_blob(mask=bytes([0xFF]) + MASK[1:]),
                "trailing value": masked_blob() + bytes(8),
                "missing value": masked_blob()[:-8],
                "no mask": masked_blob()[:HEADER_BYTES["svd"]]}[edit]
        with pytest.raises(InvalidInput, match="bytes"):
            deserialize_packet(blob, (3, 4), SVDEFENSE)

    def test_rejects_a_marked_row_at_rank_zero(self):
        # at k = 0 u_star has no entries: the block is the 3 weights and
        # the entropy, so the rank-1 mask sets pad bits
        blob = masked_blob(0, bytes([0b11100000]), STORED[2:5])
        back = deserialize_packet(blob, (3, 4), SVDEFENSE)
        assert (back.u_star.shape, back.vt_star.shape) == ((3, 0), (0, 4))
        assert_travels_bit_exactly(back)
        with pytest.raises(InvalidInput, match="pad bit"):
            deserialize_packet(masked_blob(0), (3, 4), SVDEFENSE)

    @pytest.mark.parametrize("entropy", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_entropy_is_an_entropy_error(self, entropy):
        # the entropy ends the block that the factors' finiteness check reads
        blob = masked_blob(0, bytes([0b11110000]), [*STORED[2:5], entropy])
        with pytest.raises(InvalidInput, match="entropy"):
            deserialize_packet(blob, (3, 4), SVDEFENSE)

    def test_a_dead_row_sends_neither_its_weight_nor_its_u_star_row(self):
        g = with_dead_rows(np.random.default_rng(14).normal(size=(32, 64)))
        pkt = defend_grad_svd(g, beta=0.3)
        blob = serialize_packet(pkt)
        # 97 k + 33 mask bits, 30 k stored entries of u_star, 30 weights
        k = len(pkt.sigma_star)
        mask = -(-(97 * k + 33) // 8)
        assert len(blob) == HEADER_BYTES["svd"] + mask + 8 * (30 * k + 30 + k + k * 64 + 1)
        for dead in (pkt.u_star[DEAD_ROWS], pkt.channel_weights[DEAD_ROWS]):
            assert dead.tobytes() == bytes(dead.nbytes)  # +0.0, no sign bit
        assert_travels_bit_exactly(pkt)

    @pytest.mark.parametrize("seed", range(8))
    def test_dead_units_travel_as_plus_zeros(self, seed):
        # a dead output channel's weight and a dead input unit's vt_star
        # column are exact +0.0 whatever LAPACK returns there, so each
        # entry costs one mask bit; rank-1 4 x 32 updates with zero columns
        # are where LAPACK's own zeros held noise or a flipped -0.0
        rng = np.random.default_rng(seed)
        rows, cols = [2], [5, 17, 30]
        for g in (np.outer(rng.normal(size=4), rng.normal(size=32)),
                  rng.normal(size=(4, 3)) @ rng.normal(size=(3, 32))):
            g[rows], g[:, cols] = 0.0, 0.0
            pkt = defend_grad_svd(g, beta=0.3)
            k = len(pkt.sigma_star)
            dead = (pkt.channel_weights[rows], pkt.vt_star[:, cols])
            assert all(d.tobytes() == bytes(d.nbytes) for d in dead)
            filled = replace(pkt, channel_weights=pkt.channel_weights.copy(),
                             vt_star=pkt.vt_star.copy())
            filled.channel_weights[rows], filled.vt_star[:, cols] = 1.0, 1.0
            assert (len(serialize_packet(filled)) - len(serialize_packet(pkt))
                    == 8 * (len(rows) + k * len(cols)))
            assert_travels_bit_exactly(pkt)

    @pytest.mark.parametrize("weight", [0.0, -0.0, -1.0, np.inf, np.nan])
    @pytest.mark.parametrize("u_entry", [0.0, -0.0])
    def test_a_weight_is_plus_zero_only_beside_a_plus_zero_row(self, u_entry, weight):
        # the hand-written blob's row 1 stores no u_star entry: its weight
        # may be +0.0 (and rebuilds as zeros), but no other non-positive or
        # non-finite value; once the row holds a -0.0 it is a stored entry,
        # and +0.0 is refused there as on any row that stores one
        pkt = deserialize_packet(masked_blob(), (3, 4), SVDEFENSE)
        pkt.u_star[1], pkt.channel_weights[1] = u_entry, weight
        blob = serialize_packet(pkt)
        if not np.signbit(u_entry) and weight == 0.0 and not np.signbit(weight):
            back = deserialize_packet(blob, (3, 4), SVDEFENSE)
            assert_travels_bit_exactly(back)
            assert reconstruct_packet(back)[1].tobytes() == bytes(32)
            return
        with pytest.raises(InvalidInput, match="channel weights"):
            deserialize_packet(blob, (3, 4), SVDEFENSE)

    def test_a_rank_zero_packet_may_send_all_zero_weights(self):
        # k = 0: every u_star row is empty, so every weight may be +0.0; the
        # block is one mask byte with nothing stored
        back = deserialize_packet(masked_blob(0, bytes(1), []), (3, 4), SVDEFENSE)
        assert back.channel_weights.tobytes() == bytes(24)
        assert reconstruct_packet(back).tobytes() == bytes(96)
        assert_travels_bit_exactly(back)

    def test_an_exact_zero_vt_star_entry_costs_one_bit(self):
        # the update of the layer above a dead ReLU unit has a zero column,
        # whose k vt_star entries the defender sends as +0.0: each +0.0 is
        # one mask bit, each -0.0 or other value 8 bytes more
        dead = [3, 40]
        g = np.random.default_rng(16).normal(size=(32, 64))
        g[:, dead] = 0.0
        pkt = defend_grad_svd(g, beta=0.3)
        k, sizes = len(pkt.sigma_star), []
        for fill in (0.0, -0.0, 1e-17):
            pkt.vt_star[:, dead] = fill
            assert_travels_bit_exactly(pkt)
            sizes.append(len(serialize_packet(pkt)))
        assert sizes == [sizes[2] - 8 * k * len(dead), sizes[2], sizes[2]]

    @pytest.mark.parametrize("g", [np.zeros((3, 4)), np.arange(1.0, 5.0)[None, :],
                                   np.arange(1.0, 4.0)[:, None]])
    def test_a_zero_entropy_costs_one_bit(self, g):
        # a rank-0 or thin (1 x q, p x 1) update has H = +0.0, which the
        # block does not store
        pkt = defend_grad_svd(g, beta=0.3)
        assert np.float64(pkt.entropy).tobytes() == bytes(8)
        assert len(serialize_packet(replace(pkt, entropy=0.5))) == len(serialize_packet(pkt)) + 8
        assert_travels_bit_exactly(pkt)

    @pytest.mark.parametrize("shape", [(1, 64), (32, 1), (1, 1)])
    @pytest.mark.parametrize("density", [1.0, 0.5])
    def test_thin_matrices_travel_bit_exactly(self, shape, density):
        rng = np.random.default_rng(15)
        g = rng.normal(size=shape) * (rng.random(shape) < density)
        g.flat[0] = 1.0  # not all zero, so the packet keeps rank 1
        pkt = defend_grad_svd(g, beta=0.3)
        assert_travels_bit_exactly(pkt)
        if shape == (1, 64) and density == 1.0:  # 29 bytes over the raw form
            raw = serialize_packet(defense.DefensePacket(values=g))
            assert len(serialize_packet(pkt)) == len(raw) + 29

    def test_a_default_train_run_travels_bit_exactly(self, monkeypatch):
        packets = capture_uploads(monkeypatch)
        flsim.run_experiment(flsim.FlConfig(defense=SVDEFENSE), flsim.DataConfig())
        assert_uploads_travel_bit_exactly(packets, 10 * 4)

    @pytest.mark.parametrize("method", defense.METHODS)
    def test_every_method_travels_bit_exactly(self, monkeypatch, method):
        packets = capture_uploads(monkeypatch)
        cfg = flsim.FlConfig(rounds=2, defense=DefenseConfig(method=method))
        flsim.run_experiment(cfg, flsim.DataConfig())
        assert len(packets) == 4 * cfg.rounds * cfg.clients_per_round
        for p in packets:
            assert_travels_bit_exactly(p)

    def test_a_default_attack_run_travels_bit_exactly(self, monkeypatch, tmp_path):
        # the upload does not depend on the attacker, so one iteration will do
        packets = capture_uploads(monkeypatch)
        base = cli.ExperimentSpec()
        spec = replace(base, fl=replace(base.fl, defense=SVDEFENSE),
                       attack=replace(base.attack, iterations=1),
                       harness=replace(base.harness, restarts=1))
        cli.run_attack_suite(spec, str(tmp_path), write_images=False)
        assert_uploads_travel_bit_exactly(packets, spec.harness.n_examples)


class TestDefendUpdate:
    def test_none_is_raw_identity(self):
        rng = np.random.default_rng(13)
        grads = gradset_from([(rng.normal(size=(4, 6)), rng.normal(size=4))])
        packets, residual = defend_update(grads, DefenseConfig(method="none"), seed=0)
        assert residual is None
        assert [p.values is None for p in packets] == [False, False]
        back = packets_to_gradset(packets, model_like(grads))
        np.testing.assert_array_equal(back[0], grads[0])
        np.testing.assert_array_equal(back[1], grads[1])

    def test_decoder_checks_decoded_shapes(self):
        # factors whose product has another shape than the model's tensor
        # are refused, not handed on
        rng = np.random.default_rng(17)
        grads = gradset_from([(rng.normal(size=(4, 6)), rng.normal(size=4))])
        packets, _ = defend_update(grads, DefenseConfig(method="svdefense", beta=0.3), seed=0)
        k = len(packets[0].sigma_star)
        packets[0].vt_star = np.ones((k, 5))
        with pytest.raises(InvalidInput):
            packets_to_gradset(packets, model_like(grads))

    def test_decoder_error_names_the_model_shape(self):
        rng = np.random.default_rng(18)
        grads = gradset_from([(rng.normal(size=(4, 6)), rng.normal(size=4))])
        packets, _ = defend_update([rng.normal(size=(4, 5)), grads[1]],
                                   DefenseConfig(method="none"), seed=0)
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
        packets, _ = defend_update(grads, DefenseConfig(method="svdefense", beta=0.3), seed=0)
        assert [p.values is None for p in packets] == [True, False, True, False]

    def test_config_validation(self):
        assert DefenseConfig(method="bogus").validate()
        assert DefenseConfig(beta=0.0).validate()
        assert DefenseConfig(prune_rate=1.0).validate()
        assert not DefenseConfig(method="svdefense", beta=0.3).validate()
