"""Inversion engine: distance metrics, differentiation through the backward
pass, adaptive transforms, end-to-end reconstructions."""

from dataclasses import replace

import numpy as np
import pytest

from oracles import BROKEN_UPLOADS, broken_upload, grad_distance, upload
from svdlab import attack, data, defense, tinynn
from svdlab.attack import AttackConfig, run_attack
from svdlab.errors import InvalidConfig, InvalidInput


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
        _, g = tinynn.loss_and_grad(model, *batch_for(ds, 0))
        assert grad_distance(g, g, "l2") == 0.0
        assert grad_distance(g, g, "neg_cosine_layerwise") == pytest.approx(0.0, abs=1e-12)

    def test_cosine_scale_invariance(self, setup):
        ds, model = setup
        _, g = tinynn.loss_and_grad(model, *batch_for(ds, 1))
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

    def test_unknown_metric(self, setup):
        ds, model = setup
        _, g = tinynn.loss_and_grad(model, *batch_for(ds, 0))
        with pytest.raises(InvalidConfig):
            grad_distance(g, g, "manhattan")


FD_CASES = [(m, a) for a in ("none", "prune_mask", "eot") for m in attack.DISTANCES]


class TestInputGradients:
    @pytest.mark.parametrize("metric, adaptive", FD_CASES,
                             ids=[m if a == "none" else f"{m}-{a}" for m, a in FD_CASES])
    def test_matches_finite_differences(self, metric, adaptive):
        # the replay is left out: its pullback holds the projector fixed, so
        # it is an adjoint (test_replay_pullback_is_the_adjoint), not this
        # derivative
        rng = np.random.default_rng(7)
        model = tinynn.init_model(10, [7], 4, seed=2)
        x = rng.uniform(0, 1, (1, 3, 10))  # a one-restart leading axis
        y = tinynn._softmax(rng.normal(size=(1, 3, 4)))
        obs_y = np.zeros((3, 4))
        obs_y[np.arange(3), [0, 1, 2]] = 1.0
        observed, _ = tinynn.backprop(model, rng.uniform(0, 1, (3, 10)), obs_y)
        if adaptive == "prune_mask":  # zero about half the entries so the mask bites
            observed = [t * (rng.uniform(size=t.shape) < 0.5) for t in observed]
        masks = [t != 0.0 for t in observed]
        cfg = AttackConfig(distance=metric, adaptive=adaptive, eot_samples=2, label_mode="known",
                           defense=defense.DefenseConfig(method="dp_gauss", noise_scale=0.01))

        def view(xv, yv):  # eot draws the same noise on every evaluation
            dummy, cache = tinynn.backprop(model, xv, yv)
            return attack._adaptive_view(cfg, masks, [np.random.default_rng(3)], dummy, cache), cache

        (shown, pullback), cache = view(x, y)
        _, sens = attack._distance_with_sens(observed, shown, metric)
        gx, gy = attack._input_label_grads(model, cache, pullback(sens))

        def value(xv, yv):
            shown = view(xv, yv)[0][0]
            return grad_distance(observed, [t[0] for t in shown], metric)

        h = 1e-6
        worst = 0.0
        for arr, grad in ((x, gx), (y, gy)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up = value(x, y)
                arr[idx] = orig - h
                down = value(x, y)
                arr[idx] = orig
                num = (up - down) / (2 * h)
                worst = max(worst, abs(num - grad[idx]) / max(abs(num), abs(grad[idx]), 1e-4))
        assert worst < 1e-5


class TestRunAttack:
    def test_single_example_reconstruction(self, setup):
        # frozen regression: this configuration reaches ~1e-30 on the default
        # model; anything above 1e-2 means the optimizer path broke
        ds, model = setup
        x, labels = one(ds, 3)
        _, g = tinynn.loss_and_grad(model, x, labels)
        cfg = AttackConfig(distance="l2", iterations=1000, lr=0.1, label_mode="inferred", seed=0)
        res = run_attack(model, upload(g), 1, cfg)
        assert res.label == labels[0]
        assert float(np.mean((res.reconstructed_batch[0] - x[0]) ** 2)) < 1e-2

    def test_deterministic(self, setup):
        ds, model = setup
        x, labels = batch_for(ds, 4)
        _, g = tinynn.loss_and_grad(model, x, labels)
        cfg = AttackConfig(distance="neg_cosine_layerwise", iterations=50, lr=0.1,
                           label_mode="known", seed=9)
        r1 = run_attack(model, upload(g), 3, cfg, labels=labels)
        r2 = run_attack(model, upload(g), 3, cfg, labels=labels)
        np.testing.assert_array_equal(r1.reconstructed_batch, r2.reconstructed_batch)
        np.testing.assert_array_equal(r1.loss_trace, r2.loss_trace)

    def test_inferred_fallback_warns(self, setup):
        # no negative output-bias entry -> label inference is undecidable;
        # the attack should fall back to optimizing labels and say so
        ds, model = setup
        _, g = tinynn.loss_and_grad(model, *one(ds, 5))
        g[-1] = np.abs(g[-1])
        cfg = AttackConfig(distance="l2", iterations=5, lr=0.1, label_mode="inferred", seed=0)
        res = run_attack(model, upload(g), 1, cfg)
        assert res.warnings

    def test_optimized_labels_recover_class(self, setup):
        ds, model = setup
        x, labels = one(ds, 6)
        _, g = tinynn.loss_and_grad(model, x, labels)
        cfg = AttackConfig(distance="l2", iterations=800, lr=0.1, label_mode="optimized", seed=1)
        res = run_attack(model, upload(g), 1, cfg)
        assert res.label == labels[0]

    def test_known_mode_needs_labels(self, setup):
        ds, model = setup
        _, g = tinynn.loss_and_grad(model, *one(ds, 0))
        cfg = AttackConfig(label_mode="known")
        with pytest.raises(InvalidConfig):
            run_attack(model, upload(g), 1, cfg)

    @pytest.mark.parametrize("label", [-1, 4])
    def test_rejects_labels_outside_the_classes(self, setup, label):
        ds, model = setup
        x, labels = batch_for(ds, 7)
        _, g = tinynn.loss_and_grad(model, x, labels)
        cfg = AttackConfig(iterations=2, label_mode="known")
        with pytest.raises(InvalidConfig, match="need one label in"):
            run_attack(model, upload(g), 3, cfg, labels=[labels[0], label, labels[2]])

    @pytest.mark.parametrize("how", BROKEN_UPLOADS)
    def test_rejects_broken_packets(self, setup, how):
        ds, model = setup
        x, labels = batch_for(ds, 7)
        _, g = tinynn.loss_and_grad(model, x, labels)
        packets, _ = defense.defend_update(g, defense.DefenseConfig(method="svdefense"))
        cfg = AttackConfig(iterations=2, label_mode="known")
        with pytest.raises(InvalidInput):
            run_attack(model, broken_upload(packets, how), 3, cfg, labels=labels)

    def test_rejects_a_gradset_of_other_shapes(self):
        model = tinynn.init_model(6, [3], 2, seed=0)
        _, g = tinynn.loss_and_grad(model, np.full((1, 6), 0.5), [1])
        wrong_shape = [np.ones((3, 5)), *g[1:]]
        cfg = AttackConfig(iterations=2, label_mode="known")
        for observed in (wrong_shape, g[:2]):
            with pytest.raises(InvalidInput):
                run_attack(model, upload(observed), 1, cfg, labels=1)


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
        _, g = tinynn.loss_and_grad(model, x, labels)
        dcfg = ENGINE_DEFENSES[mode]
        packets, _ = defense.defend_update(g, dcfg, rng=np.random.default_rng(2))
        return model, packets, labels, dcfg

    @pytest.mark.parametrize("label_mode", ["known", "optimized"])
    @pytest.mark.parametrize("distance", attack.DISTANCES)
    @pytest.mark.parametrize("mode", attack.ADAPTIVE_MODES)
    def test_restart_slices_equal_sequential_runs(self, setup, mode, distance, label_mode):
        model, observed, labels, dcfg = self.observed_for(setup, mode)
        cfg = AttackConfig(distance=distance, iterations=30, lr=0.1, label_mode=label_mode,
                           adaptive=mode, eot_samples=2, seed=40, defense=dcfg)
        kwargs = {"labels": labels} if label_mode == "known" else {}
        batched = run_attack(model, observed, 3, cfg, restarts=3, **kwargs)
        singles = [
            run_attack(model, observed, 3, replace(cfg, seed=40 + 1000 * j), **kwargs)
            for j in range(3)
        ]
        win = 0
        for j in (1, 2):
            if singles[j].final_distance < singles[win].final_distance:
                win = j
        best = singles[win]
        assert batched.restart == win and best.restart == 0
        np.testing.assert_array_equal(batched.loss_trace, best.loss_trace)
        np.testing.assert_array_equal(batched.reconstructed_batch, best.reconstructed_batch)
        assert batched.best_iteration == best.best_iteration
        assert batched.label == best.label
        assert batched.final_distance == best.final_distance

    def test_one_forward_pass_per_iteration(self, setup, monkeypatch):
        model, observed, labels, dcfg = self.observed_for(setup, "defense_replay")
        calls = []
        original = tinynn.forward_batch

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(tinynn, "forward_batch", counting)
        cfg = AttackConfig(distance="neg_cosine_layerwise", iterations=25, lr=0.1,
                           label_mode="optimized", adaptive="defense_replay", defense=dcfg)
        run_attack(model, observed, 3, cfg, restarts=3)
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
                           label_mode="known", adaptive="defense_replay", defense=dcfg)
        run_attack(model, observed, 3, cfg, labels=labels, restarts=3)
        assert counts == {"qr": 25, "svd": 25}

    @pytest.mark.parametrize("restarts", [0, -1, 1.5, True])
    def test_rejects_bad_restarts(self, setup, restarts):
        model, observed, labels, _ = self.observed_for(setup, "none")
        cfg = AttackConfig(iterations=2, label_mode="known")
        with pytest.raises(InvalidConfig):
            run_attack(model, observed, 3, cfg, labels=labels, restarts=restarts)

    @pytest.mark.parametrize("batch", [0, -1, 1.5, True])
    def test_rejects_bad_batch(self, setup, batch):
        model, observed, _, _ = self.observed_for(setup, "none")
        cfg = AttackConfig(iterations=2, label_mode="optimized")
        with pytest.raises(InvalidConfig, match="batch must be an integer"):
            run_attack(model, observed, batch, cfg)


class TestAdaptiveTransforms:
    def test_prune_mask_identity_when_no_zeros(self, setup):
        # with no exact zeros anywhere in the observed gradients the mask
        # passes everything through (real image gradients do contain
        # structural zeros from clipped pixels and dead ReLUs, so this needs
        # a dense observed set)
        ds, model = setup
        rng = np.random.default_rng(17)
        observed = [rng.normal(size=t.shape) for t in model.tensors()]
        cfg_none = AttackConfig(distance="l2", iterations=10, lr=0.1, label_mode="known", seed=3)
        cfg_mask = AttackConfig(distance="l2", iterations=10, lr=0.1, label_mode="known",
                                seed=3, adaptive="prune_mask")
        r1 = run_attack(model, upload(observed), 3, cfg_none, labels=[0, 1, 2])
        r2 = run_attack(model, upload(observed), 3, cfg_mask, labels=[0, 1, 2])
        np.testing.assert_array_equal(r1.loss_trace, r2.loss_trace)

    def test_eot_requires_noise_config(self, setup):
        ds, model = setup
        _, g = tinynn.loss_and_grad(model, *one(ds, 0))
        cfg = AttackConfig(adaptive="eot", eot_samples=4, label_mode="known")
        with pytest.raises(InvalidConfig):
            run_attack(model, upload(g), 1, cfg, labels=0)

    def test_replay_requires_defense_config(self, setup):
        ds, model = setup
        _, g = tinynn.loss_and_grad(model, *one(ds, 0))
        cfg = AttackConfig(adaptive="defense_replay", label_mode="known")
        with pytest.raises(InvalidConfig):
            run_attack(model, upload(g), 1, cfg, labels=0)

    def test_replay_matches_defense_pipeline(self, setup):
        # the attacker's replay of the defense must reproduce what the
        # defender would transmit, up to factorization round-off; the replay
        # reads g in factored form, delta^T act / n with delta = n I, act = g
        rng = np.random.default_rng(4)
        g = rng.normal(size=(12, 9))
        dcfg = defense.DefenseConfig(method="svdefense", beta=0.3)
        pkt = defense.defend_grad_svd(g, beta=0.3)
        dummy = [g[None].copy(), np.zeros((1, 12))]
        cfg = AttackConfig(adaptive="defense_replay", label_mode="known", defense=dcfg)
        cache = ([g[None]], None, None, [12.0 * np.eye(12)[None]])
        replayed, _ = attack._adaptive_view(cfg, None, [], dummy, cache)
        np.testing.assert_allclose(replayed[0][0],
                                   defense.reconstruct_packet(pkt), atol=1e-8)

    @staticmethod
    def assert_replay_equals_the_defender(acts, deltas, beta):
        n = acts[0].shape[-2]
        dummy = tinynn.grads_from_deltas(acts, deltas, n)
        dcfg = defense.DefenseConfig(method="svdefense", beta=beta)
        cfg = AttackConfig(adaptive="defense_replay", label_mode="known", defense=dcfg)
        cache = (acts, None, None, deltas)
        out, _ = attack._adaptive_view(cfg, None, [], dummy, cache)
        projectors = attack._replay_projectors(cache, beta)
        assert [proj[0] for proj in projectors] == [0, 1]
        for j in range(len(acts[0])):  # restart j against the defender's upload of its slice
            sent, _ = defense.defend_update([t[j] for t in dummy], dcfg)
            for l, a, _, _ in projectors:  # a = u / w keeps u's zero columns
                g, pkt = dummy[2 * l][j], sent[2 * l]
                assert np.count_nonzero(a[j].any(axis=0)) == np.count_nonzero(pkt.sigma_star)
                np.testing.assert_allclose(out[2 * l][j],
                                           defense.reconstruct_packet(pkt), rtol=0,
                                           atol=1e-8 * np.linalg.norm(g))
                np.testing.assert_array_equal(out[2 * l + 1][j], sent[2 * l + 1].values)

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

    @pytest.mark.parametrize("case", ["duplicated example", "dead layer", "n > q"])
    def test_rank_deficient_replay_equals_the_defender(self, case):
        # a batch holding one example twice (rank(act) < n), a restart whose
        # activations into the second layer are all zero (R = 0), and a
        # batch larger than every layer's input width
        rng = np.random.default_rng(8)
        n, shapes = (9, [(6, 4), (3, 5)]) if case == "n > q" else (4, [(32, 64), (4, 32)])
        deltas = [rng.normal(size=(3, n, p)) for p, _ in shapes]
        acts = [rng.uniform(size=(3, n, q)) for _, q in shapes]
        if case == "duplicated example":
            for t in (*deltas, *acts):
                t[:, 1] = t[:, 0]
        if case == "dead layer":
            acts[1][2] = 0.0
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
        cfg = AttackConfig(adaptive="defense_replay", label_mode="known", defense=dcfg)
        x, y = ([t for p, q in shapes for t in (rng.normal(size=(4, p, q)),
                                                rng.normal(size=(4, p)))] for _ in range(2))
        cache = (acts, None, None, deltas)
        px, pullback = attack._adaptive_view(cfg, None, [], x, cache)
        pty = pullback(y)
        projectors = attack._replay_projectors(cache, dcfg.beta)
        for l, _, _, touched in projectors:
            for j in range(4):
                xs, ys = x[2 * l][j], y[2 * l][j]
                if touched[j]:
                    assert np.vdot(px[2 * l][j], ys) == pytest.approx(
                        np.vdot(xs, pty[2 * l][j]), rel=1e-12)
                else:
                    np.testing.assert_array_equal(pty[2 * l][j], ys)
        assert [t[3].all() for t in projectors] == [False, True]

    def test_eot_noise_variance_shrinks(self):
        # averaging n draws leaves variance sigma^2 / n
        rng = np.random.default_rng(5)
        cfg = AttackConfig(
            adaptive="eot", eot_samples=16, label_mode="known",
            defense=defense.DefenseConfig(method="dp_gauss", noise_scale=0.5),
        )
        dummy = [np.zeros((1, 50, 40)), np.zeros((1, 50))]
        out, _ = attack._adaptive_view(cfg, None, [rng], dummy, None)
        sample_var = float(np.var(out[0]))
        assert sample_var == pytest.approx(0.5**2 / 16, rel=0.15)


class TestDumps:
    def test_pgm_format(self, tmp_path):
        img = np.linspace(0, 1, 16)
        path = tmp_path / "img.pgm"
        attack.write_pgm(img, 4, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "4 4"
        assert lines[2] == "255"
        assert len(lines) == 7
        values = [int(v) for row in lines[3:] for v in row.split()]
        assert min(values) == 0 and max(values) == 255

    def test_image_csv(self, tmp_path):
        truth = np.zeros(16)
        recon = np.ones(16)
        path = tmp_path / "pair.csv"
        attack.write_image_csv(truth, recon, 4, path)
        rows = path.read_text().splitlines()
        assert rows[0].startswith("#")
        assert len(rows) == 9
