"""Federated orchestration: client rounds, weighting, aggregation, full runs."""

import numpy as np
import pytest

from oracles import (BROKEN_UPLOADS, HEADER_BYTES, broken_upload, fedavg_reference, one_hot_grads,
                     wire_bytes)
from svdlab import data, defense, flsim, tinynn
from svdlab.defense import DefenseConfig, DefensePacket
from svdlab.errors import InvalidConfig, InvalidInput, NumericalFailure
from svdlab.flsim import (
    ClientUpdate,
    DataConfig,
    FlConfig,
    aggregate,
    aggregation_weights,
    build_experiment,
    client_round,
    run_experiment,
)


def svd_update(client_id, count, entropy):
    pkt = DefensePacket(
        channel_weights=np.ones(2), u_star=np.eye(2)[:, :1],
        sigma_star=np.ones(1), vt_star=np.eye(2)[:1, :], entropy=entropy,
    )
    return ClientUpdate(client_id, count, [pkt])


class TestAggregationWeights:
    def test_uniform_entropy_reduces_to_sample_counts(self):
        ups = [svd_update(0, 10, 1.0), svd_update(1, 30, 1.0)]
        np.testing.assert_allclose(aggregation_weights(ups, 0), [0.25, 0.75])

    def test_entropy_weighting(self):
        ups = [svd_update(0, 10, 2.0), svd_update(1, 10, 1.0)]
        np.testing.assert_allclose(aggregation_weights(ups, 0), [2 / 3, 1 / 3])

    def test_all_zero_entropy_falls_back(self):
        ups = [svd_update(0, 10, 0.0), svd_update(1, 30, 0.0)]
        np.testing.assert_allclose(aggregation_weights(ups, 0), [0.25, 0.75])

    def test_zero_entropy_client_gets_nothing(self):
        ups = [svd_update(0, 10, 0.0), svd_update(1, 10, 1.0)]
        np.testing.assert_allclose(aggregation_weights(ups, 0), [0.0, 1.0])

    def test_raw_uses_sample_counts(self):
        ups = [
            ClientUpdate(0, 5, [DefensePacket(values=np.ones(3))]),
            ClientUpdate(1, 15, [DefensePacket(values=np.ones(3))]),
        ]
        np.testing.assert_allclose(aggregation_weights(ups, 0), [0.25, 0.75])

    def test_mixed_kinds_are_refused(self):
        ups = [svd_update(0, 10, 1.0), ClientUpdate(1, 10, [DefensePacket(values=np.ones(2))])]
        with pytest.raises(InvalidInput, match="factored in some uploads and raw in others"):
            aggregation_weights(ups, 0)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            ups = [
                svd_update(i, int(rng.integers(1, 50)), float(rng.uniform(0, 2)))
                for i in range(4)
            ]
            assert abs(aggregation_weights(ups, 0).sum() - 1.0) <= 1e-12


@pytest.fixture(scope="module")
def tiny_setup():
    fl = FlConfig(
        num_clients=4, clients_per_round=2, rounds=3, local_batch_size=8,
        local_lr=0.5, defense=DefenseConfig(method="none"), seed=12,
    )
    dc = DataConfig(num_classes=4, per_class=20, per_class_test=5, side=8)
    train, test, shards, model = build_experiment(fl, dc)
    return fl, dc, train, test, shards, model


class TestClientRound:
    def test_vanishing_lr_zero_update(self, tiny_setup):
        fl, dc, train, test, shards, model = tiny_setup
        cfg = FlConfig(**{**fl.__dict__, "local_lr": 1e-300})
        update, _ = client_round(model, train, shards[0], cfg, 0, 0)
        back = defense.packets_to_gradset(update.packets, model)
        for w in back[::2]:
            assert np.max(np.abs(w)) < 1e-290

    def test_diverged_update_raises(self, tiny_setup):
        fl, dc, train, test, shards, model = tiny_setup
        cfg = FlConfig(**{**fl.__dict__, "local_lr": 1e308})
        with np.errstate(all="ignore"), pytest.raises(NumericalFailure):
            client_round(model, train, shards[0], cfg, 0, 0)

    def test_defense_none_transmits_raw_update(self, tiny_setup):
        fl, dc, train, test, shards, model = tiny_setup
        update, _ = client_round(model, train, shards[1], fl, 1, 0)
        local = model
        rng = np.random.default_rng(
            np.random.SeedSequence([fl.seed, flsim._TAG_CLIENT_BATCHES, 0, 1])
        )
        shard = shards[1]
        order = rng.permutation(len(shard))
        for start in range(0, len(shard), fl.local_batch_size):
            batch = [shard[i] for i in order[start : start + fl.local_batch_size]]
            grads = one_hot_grads(local, train.x[batch], train.y[batch])
            local = tinynn.sgd_step(local, grads, fl.local_lr)
        back = defense.packets_to_gradset(update.packets, model)
        for b, g, l in zip(back, model.tensors(), local.tensors()):
            np.testing.assert_array_equal(b, g - l)

    def test_local_epochs_match_the_reference_loop(self, tiny_setup):
        # two epochs whose batches of 7 leave a ragged last batch on a shard
        fl, dc, train, test, shards, model = tiny_setup
        cfg = FlConfig(**{**fl.__dict__, "local_epochs": 2, "local_batch_size": 7})
        assert any(len(shard) % cfg.local_batch_size for shard in shards)
        for cid, shard in enumerate(shards):
            update, _ = client_round(model, train, shard, cfg, cid, 4)
            rng = np.random.default_rng(
                np.random.SeedSequence([fl.seed, flsim._TAG_CLIENT_BATCHES, 4, cid])
            )
            local = model
            for _ in range(cfg.local_epochs):
                order = rng.permutation(len(shard))
                for start in range(0, len(shard), cfg.local_batch_size):
                    batch = [shard[i] for i in order[start : start + cfg.local_batch_size]]
                    grads = one_hot_grads(local, train.x[batch], train.y[batch])
                    local = tinynn.sgd_step(local, grads, cfg.local_lr)
            back = defense.packets_to_gradset(update.packets, model)
            for b, g, l in zip(back, model.tensors(), local.tensors()):
                assert np.array_equal(b, g - l), cid

    def test_single_step_equals_lr_times_grad(self, tiny_setup):
        fl, dc, train, test, shards, model = tiny_setup
        shard = shards[2]
        cfg = FlConfig(**{**fl.__dict__, "local_batch_size": len(shard)})
        update, _ = client_round(model, train, shard, cfg, 2, 0)
        grads = one_hot_grads(model, train.x[shard], train.y[shard])
        back = defense.packets_to_gradset(update.packets, model)
        for b, g in zip(back[::2], grads[::2]):
            np.testing.assert_allclose(b, cfg.local_lr * g, atol=1e-12)

    def test_empty_shard_rejected(self, tiny_setup):
        fl, dc, train, test, shards, model = tiny_setup
        with pytest.raises(InvalidInput):
            client_round(model, train, [], fl, 0, 0)

    @pytest.mark.parametrize("label", [-1, 4])
    def test_label_outside_the_classes_rejected(self, tiny_setup, label):
        fl, dc, train, test, shards, model = tiny_setup
        shard = shards[0]
        y = train.y.copy()
        y[shard[-1]] = label
        bad = data.Dataset(train.x, y, train.num_classes)
        with pytest.raises(InvalidInput, match="label"):
            client_round(model, bad, shard, fl, 0, 0)


class TestNoiseStreams:
    @pytest.mark.parametrize("method", defense.METHODS)
    def test_only_noise_methods_get_a_noise_stream(self, tiny_setup, monkeypatch, method):
        fl, dc, *_ = tiny_setup
        default_rng, seeds = np.random.default_rng, []

        def recording(seed=None):
            seeds.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", recording)
        run_experiment(FlConfig(**{**fl.__dict__, "defense": DefenseConfig(method=method)}), dc)
        tags = [s[1] for s in seeds if isinstance(s, list) and s[0] == fl.seed]
        assert flsim._TAG_CLIENT_BATCHES in tags
        assert (flsim._TAG_DEFENSE_NOISE in tags) == (method in defense.NOISE_METHODS)

    def test_dp_gauss_draws_the_client_round_stream(self, tiny_setup):
        fl, dc, train, test, shards, model = tiny_setup
        dp = DefenseConfig(method="dp_gauss", noise_scale=0.1)
        shard, cid, rnd = shards[2], 2, 1
        noisy, _ = client_round(model, train, shard, FlConfig(**{**fl.__dict__, "defense": dp}),
                                cid, rnd)
        raw, _ = client_round(model, train, shard, fl, cid, rnd)
        want, _ = defense.defend_update(
            defense.packets_to_gradset(raw.packets, model), dp,
            seed=[fl.seed, flsim._TAG_DEFENSE_NOISE, rnd, cid],
        )
        for got, ref in zip(noisy.packets, want):
            assert ref.values is not None  # dp_gauss sends every tensor raw
            np.testing.assert_array_equal(got.values, ref.values)


class TestAggregate:
    def test_single_client_moves_exactly(self, tiny_setup):
        fl, dc, train, test, shards, model = tiny_setup
        update, _ = client_round(model, train, shards[0], fl, 0, 0)
        new, _ = aggregate(model, [update])
        back = defense.packets_to_gradset(update.packets, model)
        for nl, ml, b in zip(new.layers, model.layers, back[::2]):
            np.testing.assert_allclose(nl.weight, ml.weight - b, atol=1e-15)

    def test_identical_updates_collapse(self, tiny_setup):
        fl, dc, train, test, shards, model = tiny_setup
        u0, _ = client_round(model, train, shards[0], fl, 0, 0)
        u1 = ClientUpdate(1, u0.sample_count, u0.packets)
        both, _ = aggregate(model, [u0, u1])
        alone, _ = aggregate(model, [u0])
        for a, b in zip(both.layers, alone.layers):
            np.testing.assert_allclose(a.weight, b.weight, atol=1e-12)

    def test_order_independent(self, tiny_setup):
        fl, dc, train, test, shards, model = tiny_setup
        ups = [
            client_round(model, train, shards[i], fl, i, 0)[0]
            for i in range(3)
        ]
        a, _ = aggregate(model, ups)
        b, _ = aggregate(model, ups[::-1])
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weight, lb.weight)

    def test_a_zero_weight_update_is_averaged_in(self, tiny_setup):
        # client 1 sends a rank-0 packet of entropy 0 for the weight it did
        # not move: client 0 takes all of that tensor's weight
        fl, dc, train, test, shards, model = tiny_setup
        cfg = DefenseConfig(method="svdefense")
        grads = one_hot_grads(model, train.x[:2], train.y[:2])
        zero = [np.zeros_like(t) if tid == 0 else t for tid, t in enumerate(grads)]
        ups = [ClientUpdate(i, 10, defense.defend_update(g, cfg, seed=0)[0])
               for i, g in enumerate([grads, zero])]
        assert len(ups[1].packets[0].sigma_star) == 0
        new, weights = aggregate(model, ups)
        assert weights[0].tolist() == [1.0, 0.0]
        decoded = defense.packets_to_gradset(ups[0].packets, model)
        np.testing.assert_array_equal(new.layers[0].weight, model.layers[0].weight - decoded[0])

    def test_width_one_weights_travel_as_factors(self, tiny_setup):
        # the 64x1 and 4x1 weights of a width-1 model are factored too; their
        # one singular value has entropy 0, so they take the sample counts
        fl, dc, *_ = tiny_setup
        cfg = FlConfig(**{**fl.__dict__, "defense": DefenseConfig(method="svdefense")})
        train, _, shards, model = build_experiment(cfg, dc, hidden_dims=(1,))
        ups = [client_round(model, train, shards[i], cfg, i, 0)[0] for i in range(2)]
        _, weights = aggregate(model, ups)
        counts = np.array([u.sample_count for u in ups], dtype=float)
        for tid in (0, 2):
            assert [(len(u.packets[tid].sigma_star), u.packets[tid].entropy) for u in ups] == [
                (1, 0.0), (1, 0.0)]
            assert weights[tid].tolist() == (counts / counts.sum()).tolist()

    def test_no_updates_are_refused(self, tiny_setup):
        # the CLI's clients_per_round >= 1 stops this first, so only a direct call reaches it
        model = tiny_setup[-1]
        with pytest.raises(InvalidInput, match="no updates to aggregate"):
            aggregate(model, [])

    @pytest.mark.parametrize("how", BROKEN_UPLOADS)
    @pytest.mark.parametrize("method", ["none", "svdefense"])
    def test_rejects_broken_upload(self, tiny_setup, method, how):
        fl, dc, train, test, shards, model = tiny_setup
        cfg = FlConfig(**{**fl.__dict__, "defense": DefenseConfig(method=method)})
        good, _ = client_round(model, train, shards[0], cfg, 0, 0)
        bad = ClientUpdate(1, good.sample_count, broken_upload(good.packets, how))
        with pytest.raises(InvalidInput):
            aggregate(model, [good, bad])


class TestRunExperiment:
    def test_matches_plain_fedavg_when_undefended(self, tiny_setup):
        fl, dc, train, test, shards, model = tiny_setup
        cfg = FlConfig(**{**fl.__dict__, "rounds": 5})
        reports, final = run_experiment(cfg, dc)
        selections = [r.selected_clients for r in reports]
        ref = fedavg_reference(
            model, train, shards, selections,
            cfg.local_lr, cfg.local_batch_size, cfg.local_epochs, cfg.seed,
        )
        for a, b in zip(final.layers, ref.layers):
            assert np.max(np.abs(a.weight - b.weight)) <= 1e-12
            assert np.max(np.abs(a.bias - b.bias)) <= 1e-12

    def test_deterministic(self, tiny_setup):
        fl, dc, *_ = tiny_setup
        r1, m1 = run_experiment(fl, dc)
        r2, m2 = run_experiment(fl, dc)
        assert [r.accuracy for r in r1] == [r.accuracy for r in r2]
        assert [r.bytes_up for r in r1] == [r.bytes_up for r in r2]
        assert [r.selected_clients for r in r1] == [r.selected_clients for r in r2]
        for a, b in zip(m1.layers, m2.layers):
            np.testing.assert_array_equal(a.weight, b.weight)

    def test_weights_normalized_every_round(self, tiny_setup):
        fl, dc, *_ = tiny_setup
        cfg = FlConfig(
            **{**fl.__dict__, "defense": DefenseConfig(method="svdefense", beta=0.3)}
        )
        reports, _ = run_experiment(cfg, dc)
        for r in reports:
            for weights in r.aggregation_weights.values():
                assert abs(sum(weights) - 1.0) <= 1e-12

    def test_svdefense_uploads_fewer_bytes(self, tiny_setup):
        fl, dc, *_ = tiny_setup
        r_none, _ = run_experiment(fl, dc)
        cfg = FlConfig(
            **{**fl.__dict__, "defense": DefenseConfig(method="svdefense", beta=0.3)}
        )
        r_svd, _ = run_experiment(cfg, dc)
        assert sum(r.bytes_up for r in r_svd) < sum(r.bytes_up for r in r_none)

    def test_bytes_match_serialization(self, tiny_setup):
        fl, dc, train, test, shards, model = tiny_setup
        update, _ = client_round(model, train, shards[0], fl, 0, 0)
        expected = sum(len(defense.serialize_packet(p)) for p in update.packets)
        assert expected == sum(defense.packet_bytes(p) for p in update.packets)

    def test_aggregates_the_parsed_wire_bytes(self, tiny_setup, monkeypatch):
        fl, dc, *_ = tiny_setup
        cfg = FlConfig(**{**fl.__dict__, "defense": DefenseConfig(method="svdefense")})
        parse, rebuild = defense.deserialize_packet, defense.reconstruct_packet
        parsed, aggregated, wire = [], [], []

        def deserialize(blob, shape):
            wire.append(len(blob))
            parsed.append(parse(blob, shape))
            return parsed[-1]

        def reconstruct(packet):
            aggregated.append(packet)
            return rebuild(packet)

        monkeypatch.setattr(defense, "deserialize_packet", deserialize)
        monkeypatch.setattr(defense, "reconstruct_packet", reconstruct)
        reports, _ = run_experiment(cfg, dc)
        # every packet the server folds in is one it parsed from the wire
        assert len(aggregated) == len(parsed) > 0
        assert {id(p) for p in aggregated} == {id(p) for p in parsed}
        assert sum(wire) == sum(r.bytes_up for r in reports)

    @pytest.mark.parametrize("method", defense.METHODS)
    def test_the_wire_is_lossless(self, tiny_setup, monkeypatch, method):
        # the server rebuilds exactly the tensors each client's packets
        # hold, so the model trains as if they had never been serialized
        fl, dc, *_ = tiny_setup
        cfg = FlConfig(**{**fl.__dict__, "defense": DefenseConfig(method=method)})
        reports, wired = run_experiment(cfg, dc)
        serialize, parse = defense.serialize_packet, defense.deserialize_packet
        sent, parsed = [], []

        def keep(packet):
            sent.append(packet)
            return serialize(packet)

        def bypass(blob, shape):
            parsed.append(parse(blob, shape))
            return sent[len(parsed) - 1]

        monkeypatch.setattr(defense, "serialize_packet", keep)
        monkeypatch.setattr(defense, "deserialize_packet", bypass)
        reports_bypassed, bypassed = run_experiment(cfg, dc)
        assert len(sent) == len(parsed) == 4 * cfg.rounds * cfg.clients_per_round
        for a, b in zip(sent, parsed):
            assert a.entropy == b.entropy and serialize(a) == serialize(b)
            x, y = defense.reconstruct_packet(a), defense.reconstruct_packet(b)
            assert (x.shape, x.tobytes()) == (y.shape, y.tobytes())
        assert [r.accuracy for r in reports] == [r.accuracy for r in reports_bypassed]
        for x, y in zip(wired.tensors(), bypassed.tensors()):
            assert x.tobytes() == y.tobytes()
        if method in ("prune", "dgp"):  # a bitmap of the n entries, then the k stored ones
            per_round = 4 * cfg.clients_per_round
            expected = [sum(wire_bytes(p) for p in sent[r * per_round:(r + 1) * per_round])
                        for r in range(cfg.rounds)]
            assert [r.bytes_up for r in reports] == expected
            full_round = flsim.raw_upload_bytes(wired) * cfg.clients_per_round
            assert max(expected) < full_round

    def test_one_defend_update_per_client_round(self, tiny_setup, monkeypatch):
        # benchmarks/workloads.py counts uploads and their bytes by wrapping
        # defense.defend_update; every upload must go through that one call
        fl, dc, *_ = tiny_setup
        defend = defense.defend_update
        for method in ("svdefense", "dgp"):
            uploads = []

            def counting(*args, **kwargs):
                out = defend(*args, **kwargs)
                uploads.append(out[0])
                return out

            monkeypatch.setattr(defense, "defend_update", counting)
            cfg = FlConfig(**{**fl.__dict__, "defense": DefenseConfig(method=method)})
            reports, _ = run_experiment(cfg, dc)
            assert (cfg.rounds, cfg.clients_per_round, len(uploads)) == (3, 2, 6)
            assert (sum(defense.packet_bytes(p) for packets in uploads for p in packets)
                    == sum(r.bytes_up for r in reports))

    @pytest.mark.parametrize("method", ["none", "svdefense"])
    def test_defends_each_selected_client_once_in_id_order(self, tiny_setup, monkeypatch,
                                                            method):
        # benchmarks/workloads.py takes each defend_update call for one
        # client's upload, in the round's order: a defender that stacked
        # several clients into one call would break its upload count and
        # per-round bytes. One local batch covers each shard, so a client's
        # update is local_lr times its gradient at the round's global model
        fl, dc, train, _, shards, model = tiny_setup
        cfg = FlConfig(**{**fl.__dict__, "local_batch_size": 1000,
                          "defense": DefenseConfig(method=method)})
        defend, calls = defense.defend_update, []

        def keep(grads, *args, **kwargs):
            calls.append([t.copy() for t in grads])
            return defend(grads, *args, **kwargs)

        monkeypatch.setattr(defense, "defend_update", keep)
        reports, _ = run_experiment(cfg, dc)
        monkeypatch.undo()
        assert len(calls) == cfg.rounds * cfg.clients_per_round
        for rnd, report in enumerate(reports):
            start = model if rnd == 0 else run_experiment(
                FlConfig(**{**cfg.__dict__, "rounds": rnd}), dc)[1]
            selected = report.selected_clients
            assert selected == sorted(set(selected)) and len(selected) == cfg.clients_per_round
            for cid, update in zip(selected, calls[rnd * len(selected):]):
                grads = one_hot_grads(start, train.x[shards[cid]], train.y[shards[cid]])
                for u, g in zip(update, grads, strict=True):
                    np.testing.assert_allclose(u, cfg.local_lr * g, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("method", ["none", "svdefense"])
    def test_a_default_round_uploads_header_and_payload(self, monkeypatch, method):
        # 4 clients x 4 tensors, each packet its header and its payload:
        # the shapes come from the model, not the wire
        defend, packets = defense.defend_update, []

        def keep(*args, **kwargs):
            out = defend(*args, **kwargs)
            packets.extend(out[0])
            return out

        monkeypatch.setattr(defense, "defend_update", keep)
        cfg = FlConfig(rounds=1, defense=DefenseConfig(method=method))
        reports, _ = run_experiment(cfg, DataConfig())
        assert len(packets) == 16
        assert reports[0].bytes_up == sum(wire_bytes(p) for p in packets)

    def test_raw_upload_bytes_is_the_dense_size(self, tiny_setup):
        # the baseline counts every value, zero or not: init_model's biases are 0
        *_, model = tiny_setup
        shifted = tinynn.ModelParams([tinynn.LayerParams(l.weight, l.bias + 1.0)
                                      for l in model.layers])
        assert not any(l.bias.any() for l in model.layers)
        dense = sum(HEADER_BYTES[2] + -(-t.size // 8) + 8 * t.size for t in model.tensors())
        assert flsim.raw_upload_bytes(model) == flsim.raw_upload_bytes(shifted) == dense

    def test_numerically_rank_one_update_trains(self):
        # a 4x32 update whose second singular value is ~5e-17 of the first
        # once stalled the Jacobi iteration (NumericalFailure)
        seed = 5000015
        cfg = FlConfig(rounds=3, seed=seed, defense=DefenseConfig(method="svdefense"))
        reports, model = run_experiment(cfg, DataConfig())
        assert len(reports) == 3
        assert all(np.isfinite(l.weight).all() for l in model.layers)

    def test_config_validation(self):
        bad = FlConfig(num_clients=2, clients_per_round=5)
        assert bad.validate()
        with pytest.raises(InvalidConfig):
            run_experiment(bad, DataConfig())

    def test_dgp_residual_persists_across_rounds(self, tiny_setup):
        fl, dc, *_ = tiny_setup
        cfg = FlConfig(
            **{
                **fl.__dict__,
                "num_clients": 2,
                "clients_per_round": 2,
                "rounds": 2,
                "defense": DefenseConfig(method="dgp"),
            }
        )
        reports, _ = run_experiment(cfg, dc)
        assert len(reports) == 2  # smoke: error feedback path executes
