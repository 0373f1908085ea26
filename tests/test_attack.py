"""Inversion engine: distance metrics, differentiation through the backward
pass, adaptive transforms, end-to-end reconstructions."""

from dataclasses import fields

import numpy as np
import pytest

from oracles import (BROKEN_UPLOADS, broken_upload, grad_distance, one_hot_grads, reference_adam,
                     upload)
from svdlab import attack, cli, data, defense, flsim, tinynn
from svdlab.attack import AttackConfig, run_attack
from svdlab.errors import InvalidConfig, InvalidInput

UNDEFENDED = defense.DefenseConfig()  # the defense a plain upload faces


@pytest.fixture(scope="module")
def setup():
    ds = data.make_synthetic(4, 30, 8, seed=11)
    model = tinynn.init_model(64, [32], 4, seed=5)
    return ds, model


def batch_for(ds, target, size=3):
    """(x, labels) of the target and companions of distinct labels."""
    batch = [target]
    used = {ds.y[target]}
    for i, label in enumerate(ds.y):
        if len(batch) == size:
            break
        if label not in used:
            batch.append(i)
            used.add(label)
    return ds.x[batch], ds.y[batch]


def one(ds, i):
    """(x, labels) of the single example i."""
    return ds.x[i : i + 1], ds.y[i : i + 1]


def scale_gradset(grads, c):
    return [c * t for t in grads]


class TestGradDistance:
    def test_identical_is_zero(self, setup):
        ds, model = setup
        g = one_hot_grads(model, *batch_for(ds, 0))
        assert grad_distance(g, g, "l2") == 0.0
        assert grad_distance(g, g, "neg_cosine_layerwise") == pytest.approx(0.0, abs=1e-12)

    def test_cosine_scale_invariance(self, setup):
        ds, model = setup
        g = one_hot_grads(model, *batch_for(ds, 1))
        for c in (0.5, 2.0, 100.0):
            scaled = scale_gradset(g, c)
            assert grad_distance(g, scaled, "neg_cosine_layerwise") == pytest.approx(0.0, abs=1e-12)
            assert grad_distance(g, scaled, "l2") > 0.0

    def test_orthogonal_single_layer(self):
        a = [np.array([[1.0, 0.0]]), np.zeros(1)]
        b = [np.array([[0.0, 1.0]]), np.zeros(1)]
        assert grad_distance(a, b, "neg_cosine_layerwise") == pytest.approx(1.0)

    def test_zero_norm_layer_contributes_nothing(self):
        a = [np.zeros((2, 2)), np.zeros(2)]
        b = [np.ones((2, 2)), np.ones(2)]
        assert grad_distance(a, b, "neg_cosine_layerwise") == 0.0

    def test_zero_restart_in_a_stack_is_computed_alone(self):
        # restart 1 of three is all zero and the observed middle layer is zero:
        # each slice gets the loss and sensitivities it gets alone, bit for bit,
        # and the zero restart adds 0 and gets +0 everywhere
        rng = np.random.default_rng(17)
        shapes = [(5, 7), (5,), (4, 5), (4,), (3, 4), (3,)]
        observed = [rng.normal(size=s) for s in shapes]
        observed[2][:] = observed[3][:] = 0.0
        dummy = [rng.normal(size=(3, *s)) for s in shapes]
        for t in dummy:
            t[1] = 0.0
        units = attack._unit_vectors(observed)
        assert [u is None for u in units] == [False, True, False]
        metric = "neg_cosine_layerwise"
        loss, sens = attack._distance_with_sens(observed, [t.copy() for t in dummy], metric, units)
        for j in range(3):
            alone, alone_sens = attack._distance_with_sens(observed, [t[j].copy() for t in dummy],
                                                           metric, units)
            assert loss[j].tobytes() == alone.tobytes()
            assert [s[j].tobytes() for s in sens] == [s.tobytes() for s in alone_sens]
        assert loss[1] == 0.0 and loss[0] > 0.0 and loss[2] > 0.0
        assert all(s[1].tobytes() == bytes(s[1].nbytes) for s in sens)

    @pytest.mark.parametrize("metric", attack.DISTANCES)
    def test_leaves_its_arguments_alone(self, setup, metric):
        # one list passed as both gradient sets, as the oracle allows
        ds, model = setup
        g = one_hot_grads(model, *batch_for(ds, 0))
        before = [t.copy() for t in g]
        grad_distance(g, g, metric)
        for t, t0 in zip(g, before):
            assert np.array_equal(t, t0)

    def test_unknown_metric(self, setup):
        ds, model = setup
        g = one_hot_grads(model, *batch_for(ds, 0))
        with pytest.raises(InvalidConfig):
            grad_distance(g, g, "manhattan")


class TestAdam:
    def test_in_place_step_matches_the_reference(self):
        # attack._adam updates p, m and v in place; every step must give the
        # bits of the out-of-place expression, over gradients from 1e-12 to
        # 1e3 of either sign with exact zeros among them
        rng = np.random.default_rng(23)
        p = rng.uniform(0.0, 1.0, (3, 3, 64))
        m, v = np.zeros_like(p), np.zeros_like(p)
        rp, rm, rv = p.copy(), 0.0, 0.0  # scalar zero moments: the same bits as zero arrays
        for t in range(1, 101):
            g = rng.choice([-1.0, 1.0], p.shape) * 10.0 ** rng.uniform(-12.0, 3.0, p.shape)
            g[rng.uniform(size=p.shape) < 0.1] = 0.0
            attack._adam(p, g, m, v, t, 0.1)
            rp, rm, rv = reference_adam(rp, g, rm, rv, t, 0.1)
            for mine, theirs in zip((p, m, v), (rp, rm, rv)):
                assert np.array_equal(mine, theirs)


FD_CASES = [(m, a, h) for h in ([7], [7, 5]) for a in ("none", "prune_mask", "eot")
            for m in attack.DISTANCES]


class TestInputGradients:
    @pytest.mark.parametrize("metric, adaptive, hidden", FD_CASES,
                             ids=[m + ("" if a == "none" else f"-{a}") + ("-7-5" if h[1:] else "")
                                  for m, a, h in FD_CASES])
    def test_matches_finite_differences(self, metric, adaptive, hidden):
        # the replay is left out: its pullback holds the projector fixed, so
        # it is an adjoint (test_replay_pullback_is_the_adjoint), not this
        # derivative. Two hidden layers put a hidden-to-hidden ReLU mask in
        # both chains of _input_grads. y stays soft: it is a fixed input here
        rng = np.random.default_rng(7)
        model = tinynn.init_model(10, hidden, 4, seed=2)
        x = rng.uniform(0, 1, (1, 3, 10))  # a one-restart leading axis
        y = tinynn._softmax(rng.normal(size=(1, 3, 4)))
        obs_y = np.zeros((3, 4))
        obs_y[np.arange(3), [0, 1, 2]] = 1.0
        observed, _ = tinynn.backprop(model, rng.uniform(0, 1, (3, 10)), obs_y)
        if adaptive == "prune_mask":  # zero about half the entries so the mask bites
            observed = [t * (rng.uniform(size=t.shape) < 0.5) for t in observed]
        method = "prune" if adaptive == "prune_mask" else "dp_gauss"  # prune's bound bites too
        cfg = AttackConfig(distance=metric, adaptive=adaptive, eot_samples=2)
        faced = defense.DefenseConfig(method=method, noise_scale=0.01)
        masks = attack._known_zeros(observed, faced)

        def view(xv):  # eot draws the same noise on every evaluation
            dummy, cache = tinynn.backprop(model, xv, y)
            rngs = [np.random.default_rng(3)]
            return attack._adaptive_view(cfg, faced, masks, rngs, dummy, cache), cache

        (shown, pullback), cache = view(x)
        _, sens = attack._distance_with_sens(observed, shown, metric,
                                             attack._unit_vectors(observed))
        gx = attack._input_grads(model, cache, pullback(sens))

        def value(xv):
            shown = view(xv)[0][0]
            return grad_distance(observed, [t[0] for t in shown], metric)

        h = 1e-6
        worst = 0.0
        it = np.nditer(x, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = x[idx]
            x[idx] = orig + h
            up = value(x)
            x[idx] = orig - h
            down = value(x)
            x[idx] = orig
            num = (up - down) / (2 * h)
            worst = max(worst, abs(num - gx[idx]) / max(abs(num), abs(gx[idx]), 1e-4))
        assert worst < 1e-5


class TestRunAttack:
    def test_single_example_reconstruction(self, setup):
        # frozen regression: this configuration reaches ~1e-30 on the default
        # model; anything above 1e-2 means the optimizer path broke
        ds, model = setup
        x, labels = one(ds, 3)
        g = one_hot_grads(model, x, labels)
        cfg = AttackConfig(distance="l2", iterations=1000, lr=0.1)
        res = run_attack(model, upload(g), cfg, UNDEFENDED, labels, [0])
        assert float(np.mean((res.reconstructed_batch[0] - x[0]) ** 2)) < 1e-2

    def test_deterministic(self, setup):
        ds, model = setup
        x, labels = batch_for(ds, 4)
        g = one_hot_grads(model, x, labels)
        cfg = AttackConfig(distance="neg_cosine_layerwise", iterations=50, lr=0.1)
        r1 = run_attack(model, upload(g), cfg, UNDEFENDED, labels, [9])
        r2 = run_attack(model, upload(g), cfg, UNDEFENDED, labels, [9])
        np.testing.assert_array_equal(r1.reconstructed_batch, r2.reconstructed_batch)
        np.testing.assert_array_equal(r1.loss_trace, r2.loss_trace)

    @pytest.mark.parametrize("distance", attack.DISTANCES)
    def test_tied_distances_keep_the_first_iterate(self, distance):
        # at lr 1e-300 Adam's step rounds away, so every iteration's distance
        # ties, and only a strictly lower distance replaces iteration 0
        model = tinynn.init_model(16, [7], 4, seed=5)
        x, labels = np.random.default_rng(0).uniform(0.0, 1.0, (3, 16)), np.array([0, 1, 2])
        g = one_hot_grads(model, x, labels)
        cfg = AttackConfig(distance=distance, iterations=6, lr=1e-300)
        res = run_attack(model, upload(g), cfg, UNDEFENDED, labels, [11], restarts=2)
        assert res.best_iteration == 0
        assert len(np.unique(res.loss_trace)) == 1
        start = np.random.default_rng([11, res.restart]).uniform(0.0, 1.0, (3, 16))
        np.testing.assert_array_equal(res.reconstructed_batch, start)

    @pytest.mark.parametrize("given", [
        [0, -1, 2], [0, 4, 2], [0.7, 1.2, 2.9], [True, False, True], [0, 1, float("nan")],
        ["a", "b", "c"], [0, 1, 2**63], None,
        1, np.array(1), np.array([[0, 1, 2]]), [], np.array([], dtype=np.int64),
    ], ids=["-1", "4", "fractional", "bool", "nan", "str", "past_int64", "none",
            "int", "0-d", "2-d", "empty", "empty-int"])
    def test_rejects_labels_outside_the_classes(self, setup, given):
        ds, model = setup
        x, labels = batch_for(ds, 7)
        g = one_hot_grads(model, x, labels)
        cfg = AttackConfig(iterations=2)
        with pytest.raises(InvalidConfig, match="need one label in"):
            run_attack(model, upload(g), cfg, UNDEFENDED, given, [0])

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_the_labels_fix_the_batch_size(self, setup, size):
        ds, model = setup
        x, labels = batch_for(ds, 7, size)
        g = one_hot_grads(model, x, labels)
        res = run_attack(model, upload(g), AttackConfig(iterations=2), UNDEFENDED, labels, [0])
        assert res.reconstructed_batch.shape == (size, model.input_dim)

    def test_takes_unsigned_labels(self, setup):
        ds, model = setup
        x, labels = batch_for(ds, 7)
        g = one_hot_grads(model, x, labels)
        cfg = AttackConfig(iterations=2)
        res = run_attack(model, upload(g), cfg, UNDEFENDED, labels.astype(np.uint8), [0])
        ref = run_attack(model, upload(g), cfg, UNDEFENDED, labels, [0])
        np.testing.assert_array_equal(res.loss_trace, ref.loss_trace)

    @pytest.mark.parametrize("how", BROKEN_UPLOADS)
    def test_rejects_broken_packets(self, setup, how):
        ds, model = setup
        x, labels = batch_for(ds, 7)
        g = one_hot_grads(model, x, labels)
        dcfg = defense.DefenseConfig(method="svdefense")
        packets, _ = defense.defend_update(g, dcfg, seed=0)
        cfg = AttackConfig(iterations=2)
        with pytest.raises(InvalidInput):
            run_attack(model, broken_upload(packets, how), cfg, dcfg, labels, [0])

    def test_rejects_a_gradset_of_other_shapes(self):
        model = tinynn.init_model(6, [3], 2, seed=0)
        g = one_hot_grads(model, np.full((1, 6), 0.5), [1])
        wrong_shape = [np.ones((3, 5)), *g[1:]]
        cfg = AttackConfig(iterations=2)
        for observed in (wrong_shape, g[:2]):
            with pytest.raises(InvalidInput):
                run_attack(model, upload(observed), cfg, UNDEFENDED, [1], [0])

    @pytest.mark.parametrize("mode, faced, field", [
        ("defense_replay", defense.DefenseConfig(method="svdefense", beta=-1.0), "beta"),
        ("prune_mask", defense.DefenseConfig(method="prune", prune_rate=1.5), "prune_rate"),
        ("eot", defense.DefenseConfig(method="dp_gauss", noise_scale=-1.0), "noise_scale"),
    ], ids=["beta", "prune_rate", "noise_scale"])
    def test_rejects_a_bad_defense_before_any_work(self, monkeypatch, mode, faced, field):
        # the defense handed in is checked as the restarts and labels are:
        # one InvalidConfig naming the field, before the first model pass
        model, labels = tinynn.init_model(64, [32], 4, seed=0), np.array([0, 1, 2])
        g = one_hot_grads(model, np.random.default_rng(0).uniform(0.0, 1.0, (3, 64)), labels)
        passes = []
        monkeypatch.setattr(tinynn, "backprop", lambda *args: passes.append(1))
        cfg = AttackConfig(iterations=3, adaptive=mode, eot_samples=2)
        with pytest.raises(InvalidConfig, match=rf"^{field} must be "):
            run_attack(model, upload(g), cfg, faced, labels, [0])
        assert passes == []


ENGINE_DEFENSES = {
    "none": defense.DefenseConfig(method="none"),
    "prune_mask": defense.DefenseConfig(method="prune", prune_rate=0.9),
    "eot": defense.DefenseConfig(method="dp_gauss", noise_scale=0.01),
    "defense_replay": defense.DefenseConfig(method="svdefense", beta=0.3),
}


class TestEngine:
    """Restarts run as one leading axis; each slice is the sequential run."""

    def observed_for(self, setup, mode):
        ds, model = setup
        x, labels = batch_for(ds, 8)
        g = one_hot_grads(model, x, labels)
        dcfg = ENGINE_DEFENSES[mode]
        packets, _ = defense.defend_update(g, dcfg, seed=2)
        return model, packets, labels, dcfg

    @pytest.mark.parametrize("distance", attack.DISTANCES)
    @pytest.mark.parametrize("mode", attack.ADAPTIVE_MODES)
    def test_restart_slices_equal_sequential_runs(self, setup, monkeypatch, mode, distance):
        # restart j's per-iteration distances are the same bits in a run of
        # j + 1 restarts as in one of 3, and the winner is the first lowest:
        # the run of win + 1 restarts returns exactly what the run of 3 does
        model, observed, labels, dcfg = self.observed_for(setup, mode)
        cfg = AttackConfig(distance=distance, iterations=30, lr=0.1, adaptive=mode, eot_samples=2)
        losses, distance_with_sens = [], attack._distance_with_sens

        def recording(*args):
            loss, sens = distance_with_sens(*args)
            losses[-1].append(loss.copy())
            return loss, sens

        monkeypatch.setattr(attack, "_distance_with_sens", recording)
        results = []
        for restarts in (1, 2, 3):
            losses.append([])
            results.append(run_attack(model, observed, cfg, dcfg, labels, [40], restarts=restarts))
        traces = [np.array(t) for t in losses]  # (iterations, restarts)
        for trace in traces:
            assert trace.tobytes() == traces[-1][:, :trace.shape[1]].tobytes()
        best = traces[-1].min(axis=0)
        win = int(np.flatnonzero(best == best.min())[0])
        batched, alone = results[-1], results[win]
        assert batched.restart == alone.restart == win
        assert (batched.loss_trace.tobytes() == alone.loss_trace.tobytes()
                == traces[-1][:, win].tobytes())
        np.testing.assert_array_equal(batched.reconstructed_batch, alone.reconstructed_batch)
        assert batched.best_iteration == alone.best_iteration
        assert batched.final_distance == alone.final_distance == best[win]

    def test_no_two_random_streams_share_a_state(self, monkeypatch):
        # every generator built by a one-round dp_gauss training run and by
        # two eot victims of 2 restarts each starts from its own state: no
        # restart replays another victim's restart (run_seed 0 and 1000) or
        # a training stream (the training and test data draw from [s, 0] and
        # [s, 1], which default_rng(s) and default_rng([s, 1]) would repeat)
        dcfg = defense.DefenseConfig(method="dp_gauss", noise_scale=0.01)
        spec = cli.ExperimentSpec(
            seed=7, fl=flsim.FlConfig(rounds=1, defense=dcfg, seed=7),
            attack=AttackConfig(iterations=3, adaptive="eot", eot_samples=2),
            harness=cli.AttackHarnessConfig(restarts=2),
        )
        train, _, _, model = flsim.build_experiment(spec.fl, spec.data, spec.hidden_dims)
        batch = cli.pick_victim_batches(train, 1, spec.harness.batch_size, spec.seed)[0]
        states, default_rng = [], np.random.default_rng

        def recording(*args, **kwargs):
            rng = default_rng(*args, **kwargs)
            states.append(rng.bit_generator.state["state"])
            return rng

        monkeypatch.setattr(np.random, "default_rng", recording)
        flsim.run_experiment(spec.fl, spec.data, spec.hidden_dims)
        trained = len(states)
        for run_seed in (0, 1000):
            cli.attack_one(model, train, batch, spec, run_seed)
        keys = [(s["state"], s["inc"]) for s in states]
        assert len(set(keys)) == len(keys)
        assert len(keys) == trained + 2 * 3  # per victim: its noise, then 2 restarts

    @pytest.mark.parametrize("distance", attack.DISTANCES)
    @pytest.mark.parametrize("mode", attack.ADAPTIVE_MODES)
    def test_writes_only_what_it_owns(self, mode, distance):
        # raw packets decode to views of their own values, and the engine
        # updates its buffers in place: the upload, the labels and the model
        # must come back bit for bit as they went in
        model = tinynn.init_model(16, [6], 4, seed=5)
        labels = np.array([0, 1, 2])
        g = one_hot_grads(model, np.random.default_rng(0).uniform(0.0, 1.0, (3, 16)), labels)
        dcfg = ENGINE_DEFENSES[mode]
        packets, _ = defense.defend_update(g, dcfg, seed=2)
        cfg = AttackConfig(distance=distance, iterations=4, lr=0.1, adaptive=mode, eot_samples=2)

        def arrays():
            owned = [getattr(p, f.name) for p in packets for f in fields(p)]
            return [a for a in owned + [labels] + model.tensors() if isinstance(a, np.ndarray)]

        before = [a.copy() for a in arrays()]
        run_attack(model, packets, cfg, dcfg, labels, [40], restarts=2)
        after = arrays()
        assert len(after) == len(before)
        for a, a0 in zip(after, before):
            assert np.array_equal(a, a0)

    def test_one_forward_pass_per_iteration(self, setup, monkeypatch):
        model, observed, labels, dcfg = self.observed_for(setup, "defense_replay")
        calls = []
        original = tinynn.forward_batch

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(tinynn, "forward_batch", counting)
        cfg = AttackConfig(distance="neg_cosine_layerwise", iterations=25, lr=0.1,
                           adaptive="defense_replay")
        run_attack(model, observed, cfg, dcfg, labels, [0], restarts=3)
        assert len(calls) == 25

    def test_replay_factorizations_per_iteration(self, setup, monkeypatch):
        # one QR of the activations and one SVD of the weighted K per
        # iteration: the replay never factors a p x q matrix
        model, observed, labels, dcfg = self.observed_for(setup, "defense_replay")
        counts = {"qr": 0, "svd": 0}
        for name in counts:
            def counting(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counting)
        cfg = AttackConfig(distance="neg_cosine_layerwise", iterations=25, lr=0.1,
                           adaptive="defense_replay")
        run_attack(model, observed, cfg, dcfg, labels, [0], restarts=3)
        assert counts == {"qr": 25, "svd": 25}

    @pytest.mark.parametrize("restarts", [0, -1, 1.5, True])
    def test_rejects_bad_restarts(self, setup, restarts):
        model, observed, labels, dcfg = self.observed_for(setup, "none")
        cfg = AttackConfig(iterations=2)
        with pytest.raises(InvalidConfig):
            run_attack(model, observed, cfg, dcfg, labels, [0], restarts=restarts)

class TestAdaptiveTransforms:
    def test_prune_mask_identity_when_no_zeros(self, setup):
        # with no exact zeros anywhere in the observed gradients the mask
        # passes everything through (real image gradients do contain
        # structural zeros from clipped pixels and dead ReLUs, so this needs
        # a dense observed set)
        ds, model = setup
        rng = np.random.default_rng(17)
        observed = [rng.normal(size=t.shape) for t in model.tensors()]
        cfg_none = AttackConfig(distance="l2", iterations=10, lr=0.1)
        cfg_mask = AttackConfig(distance="l2", iterations=10, lr=0.1, adaptive="prune_mask")
        r1 = run_attack(model, upload(observed), cfg_none, UNDEFENDED, [0, 1, 2], [3])
        r2 = run_attack(model, upload(observed), cfg_mask, UNDEFENDED, [0, 1, 2], [3])
        np.testing.assert_array_equal(r1.loss_trace, r2.loss_trace)

    @pytest.mark.parametrize("method", ["prune", "dgp"])
    def test_prune_mask_view_bounds_what_prune_zeroed(self, setup, method):
        # the view of the true gradient is the upload. prune zeroes no
        # magnitude above the smallest it keeps, so doubling the gradient
        # shows off the mask; dgp also zeroes its largest entries, gives no
        # bound, and its view is the mask alone
        ds, model = setup
        x, labels = batch_for(ds, 4)
        grads = one_hot_grads(model, x, labels)
        d = defense.DefenseConfig(method=method, prune_rate=0.9)
        observed = defense.packets_to_gradset(defense.defend_update(grads, d, seed=0)[0], model)
        cfg, masks = AttackConfig(adaptive="prune_mask"), attack._known_zeros(observed, d)
        for scale in (1.0, 2.0):
            view, _ = attack._adaptive_view(cfg, d, masks, [], [scale * g for g in grads], None)
            masked_only = all(np.array_equal(v, scale * o) for v, o in zip(view, observed))
            assert masked_only == (scale == 1.0 or method == "dgp")

    @pytest.mark.parametrize("mode, message", [
        ("eot", "adaptive 'eot' requires fl.defense.method dp_gauss or dp_lap with "
                "noise_scale > 0"),
        ("defense_replay", "adaptive 'defense_replay' requires fl.defense.method svdefense"),
    ], ids=["eot", "defense_replay"])
    def test_the_default_defense_is_a_config_the_adaptive_modes_refuse(self, mode, message):
        assert attack.pairing_errors(mode, defense.DefenseConfig()) == [message]
        assert attack.pairing_errors(mode, defense.DefenseConfig(method="prune")) == [message]

    def test_eot_requires_noise_config(self, setup):
        ds, model = setup
        g = one_hot_grads(model, *one(ds, 0))
        cfg = AttackConfig(adaptive="eot", eot_samples=4)
        with pytest.raises(InvalidConfig):
            run_attack(model, upload(g), cfg, UNDEFENDED, [0], [0])

    def test_replay_requires_defense_config(self, setup):
        ds, model = setup
        g = one_hot_grads(model, *one(ds, 0))
        cfg = AttackConfig(adaptive="defense_replay")
        with pytest.raises(InvalidConfig):
            run_attack(model, upload(g), cfg, UNDEFENDED, [0], [0])

    def test_replay_matches_defense_pipeline(self, setup):
        # the attacker's replay of the defense must reproduce what the
        # defender would transmit, up to factorization round-off; the replay
        # reads g in factored form, delta^T act / n with delta = n I, act = g
        rng = np.random.default_rng(4)
        g = rng.normal(size=(12, 9))
        dcfg = defense.DefenseConfig(method="svdefense", beta=0.3)
        pkt = defense.defend_grad_svd(g, beta=0.3)
        dummy = [g[None].copy(), np.zeros((1, 12))]
        cfg = AttackConfig(adaptive="defense_replay")
        cache = ([g[None]], None, None, [12.0 * np.eye(12)[None]])
        replayed, _ = attack._adaptive_view(cfg, dcfg, None, [], dummy, cache)
        np.testing.assert_allclose(replayed[0][0],
                                   defense.reconstruct_packet(pkt), atol=1e-8)

    @staticmethod
    def assert_replay_equals_the_defender(acts, deltas, beta):
        n = acts[0].shape[-2]  # the wire-order gradients tinynn.backprop forms
        dummy = [t for a, d in zip(acts, deltas)
                 for t in (d.swapaxes(-1, -2) @ a / n, d.sum(axis=-2) / n)]
        dcfg = defense.DefenseConfig(method="svdefense", beta=beta)
        cfg = AttackConfig(adaptive="defense_replay")
        cache = (acts, None, None, deltas)
        out, _ = attack._adaptive_view(cfg, dcfg, None, [], dummy, cache)
        projectors = attack._replay_projectors(cache, beta)
        assert len(projectors) == len(acts)  # one per layer, in layer order
        for j in range(len(acts[0])):  # restart j against the defender's upload of its slice
            sent, _ = defense.defend_update([t[j] for t in dummy], dcfg, seed=0)
            for l, (a, _, _) in enumerate(projectors):  # a = u / w keeps u's zero columns
                g, pkt = dummy[2 * l][j], sent[2 * l]
                assert np.count_nonzero(a[j].any(axis=0)) == np.count_nonzero(pkt.sigma_star)
                np.testing.assert_allclose(out[2 * l][j],
                                           defense.reconstruct_packet(pkt), rtol=0,
                                           atol=1e-8 * np.linalg.norm(g))
                np.testing.assert_array_equal(out[2 * l + 1][j], sent[2 * l + 1].values)
                assert not out[2 * l][j][~g.any(axis=1)].any()  # g's zero rows replay as zeros

    @pytest.mark.parametrize("beta", [0.3, 1000.0])  # 1000: T rounds to 1
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_stacked_replay_equals_the_defender(self, n, beta):
        # restart stacks of delta^T act / n on a 32x64 layer and a 4x32 one
        # (p < n at n = 5); restart 1 of the first layer is all zero
        rng = np.random.default_rng(n)
        shapes = [(32, 64), (4, 32)]
        deltas = [rng.normal(size=(4, n, p)) for p, _ in shapes]
        acts = [rng.uniform(size=(4, n, q)) for _, q in shapes]
        deltas[0][1] = 0.0
        self.assert_replay_equals_the_defender(acts, deltas, beta)

    @pytest.mark.parametrize("case", ["duplicated example", "dead layer", "n > q", "dead rows"])
    def test_rank_deficient_replay_equals_the_defender(self, case):
        # a batch holding one example twice (rank(act) < n), a restart whose
        # activations into the second layer are all zero (R = 0), a batch
        # larger than every layer's input width, and units that no example
        # of the batch reaches (zero delta columns, so zero rows of g)
        rng = np.random.default_rng(8)
        n, shapes = (9, [(6, 4), (3, 5)]) if case == "n > q" else (4, [(32, 64), (4, 32)])
        deltas = [rng.normal(size=(3, n, p)) for p, _ in shapes]
        acts = [rng.uniform(size=(3, n, q)) for _, q in shapes]
        if case == "duplicated example":
            for t in (*deltas, *acts):
                t[:, 1] = t[:, 0]
        if case == "dead layer":
            acts[1][2] = 0.0
        if case == "dead rows":
            deltas[0][..., [0, 1, 17]] = 0.0
            deltas[1][1:, :, 0] = 0.0
        for beta in (0.3, 1000.0):
            self.assert_replay_equals_the_defender(acts, deltas, beta)

    @pytest.mark.parametrize("n", [1, 3])
    def test_thin_layers_replay_as_the_defender(self, n):
        # a width-1 hidden layer: the 1x6 and 3x1 weight gradients have one
        # singular value each and are factored, and replayed, like the rest
        rng = np.random.default_rng(10 + n)
        shapes = [(1, 6), (3, 1)]
        deltas = [rng.normal(size=(2, n, p)) for p, _ in shapes]
        acts = [rng.uniform(size=(2, n, q)) for _, q in shapes]
        for beta in (0.3, 1000.0):
            self.assert_replay_equals_the_defender(acts, deltas, beta)

    def test_replay_pullback_is_the_adjoint(self):
        # per restart, <P x, y> = <x, P^T y> for the replayed map P of a
        # nonzero layer; a zero layer passes its sensitivities through
        rng = np.random.default_rng(6)
        shapes = [(32, 64), (4, 32)]
        deltas = [rng.normal(size=(4, 3, p)) for p, _ in shapes]
        acts = [rng.uniform(size=(4, 3, q)) for _, q in shapes]
        deltas[0][1] = 0.0
        dcfg = defense.DefenseConfig(method="svdefense", beta=0.3)
        cfg = AttackConfig(adaptive="defense_replay")
        x, y = ([t for p, q in shapes for t in (rng.normal(size=(4, p, q)),
                                                rng.normal(size=(4, p)))] for _ in range(2))
        cache = (acts, None, None, deltas)
        px, pullback = attack._adaptive_view(cfg, dcfg, None, [], x, cache)
        pty = pullback(y)
        projectors = attack._replay_projectors(cache, dcfg.beta)
        for l, (_, _, touched) in enumerate(projectors):
            for j in range(4):
                xs, ys = x[2 * l][j], y[2 * l][j]
                if touched[j]:
                    assert np.vdot(px[2 * l][j], ys) == pytest.approx(
                        np.vdot(xs, pty[2 * l][j]), rel=1e-12)
                else:
                    np.testing.assert_array_equal(pty[2 * l][j], ys)
        assert [t[2].all() for t in projectors] == [False, True]

    def test_eot_noise_variance_shrinks(self):
        # averaging n draws leaves variance sigma^2 / n
        rng = np.random.default_rng(5)
        cfg = AttackConfig(adaptive="eot", eot_samples=16)
        faced = defense.DefenseConfig(method="dp_gauss", noise_scale=0.5)
        dummy = [np.zeros((1, 50, 40)), np.zeros((1, 50))]
        out, _ = attack._adaptive_view(cfg, faced, None, [rng], dummy, None)
        sample_var = float(np.var(out[0]))
        assert sample_var == pytest.approx(0.5**2 / 16, rel=0.15)
