"""Inversion engine: distance metrics, differentiation through the backward
pass, adaptive transforms, end-to-end reconstructions."""

from dataclasses import replace

import numpy as np
import pytest

from svdlab import attack, data, defense, tinynn
from svdlab.attack import AttackConfig, grad_distance, run_attack
from svdlab.errors import InvalidConfig
from svdlab.tinynn import Example, GradSet, LayerGrads


@pytest.fixture(scope="module")
def setup():
    ds = data.make_synthetic(4, 30, 8, seed=11)
    model = tinynn.init_model(64, [32], 4, seed=5)
    return ds, model


def batch_for(ds, target, size=3):
    batch = [ds.examples[target]]
    used = {ds.examples[target].label}
    for ex in ds.examples:
        if len(batch) == size:
            break
        if ex.label not in used:
            batch.append(ex)
            used.add(ex.label)
    return batch


def scale_gradset(grads, c):
    return GradSet(
        [LayerGrads(c * g.weight_grad, c * g.bias_grad) for g in grads.layers]
    )


class TestGradDistance:
    def test_identical_is_zero(self, setup):
        ds, model = setup
        _, g = tinynn.loss_and_grad(model, batch_for(ds, 0))
        assert grad_distance(g, g, "l2") == 0.0
        assert grad_distance(g, g, "neg_cosine_layerwise") == pytest.approx(0.0, abs=1e-12)

    def test_cosine_scale_invariance(self, setup):
        ds, model = setup
        _, g = tinynn.loss_and_grad(model, batch_for(ds, 1))
        for c in (0.5, 2.0, 100.0):
            scaled = scale_gradset(g, c)
            assert grad_distance(g, scaled, "neg_cosine_layerwise") == pytest.approx(0.0, abs=1e-12)
            assert grad_distance(g, scaled, "l2") > 0.0

    def test_orthogonal_single_layer(self):
        a = GradSet([LayerGrads(np.array([[1.0, 0.0]]), np.zeros(1))])
        b = GradSet([LayerGrads(np.array([[0.0, 1.0]]), np.zeros(1))])
        assert grad_distance(a, b, "neg_cosine_layerwise") == pytest.approx(1.0)

    def test_zero_norm_layer_contributes_nothing(self):
        a = GradSet([LayerGrads(np.zeros((2, 2)), np.zeros(2))])
        b = GradSet([LayerGrads(np.ones((2, 2)), np.ones(2))])
        assert grad_distance(a, b, "neg_cosine_layerwise") == 0.0

    def test_unknown_metric(self, setup):
        ds, model = setup
        _, g = tinynn.loss_and_grad(model, batch_for(ds, 0))
        with pytest.raises(InvalidConfig):
            grad_distance(g, g, "manhattan")


class TestInputGradients:
    @pytest.mark.parametrize("metric", ["l2", "neg_cosine_layerwise"])
    def test_matches_finite_differences(self, metric):
        rng = np.random.default_rng(7)
        model = tinynn.init_model(10, [7], 4, seed=2)
        x = rng.uniform(0, 1, (3, 10))
        y = tinynn._softmax(rng.normal(size=(3, 4)))
        obs_y = np.zeros((3, 4))
        obs_y[np.arange(3), [0, 1, 2]] = 1.0
        observed, _ = attack._forward(model, rng.uniform(0, 1, (3, 10)), obs_y)

        dummy, cache = attack._forward(model, x, y)
        _, sens = attack._distance_with_sens(observed, dummy, metric)
        gx, gy = attack._input_label_grads(model, cache, sens)

        def value(xv, yv):
            return grad_distance(observed, attack._forward(model, xv, yv)[0], metric)

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
    def test_fixed_point_at_init(self, setup):
        ds, model = setup
        ex = ds.examples[2]
        _, g = tinynn.loss_and_grad(model, [ex])
        cfg = AttackConfig(distance="l2", iterations=5, lr=0.1, label_mode="known", seed=0)
        res = run_attack(model, g, (64,), cfg, labels=ex.label, init=ex.input)
        assert res.loss_trace[0] == pytest.approx(0.0, abs=1e-20)
        assert res.best_iteration == 0
        np.testing.assert_allclose(res.reconstructed, ex.input, atol=1e-9)

    def test_single_example_reconstruction(self, setup):
        # frozen regression: this configuration reaches ~1e-30 on the default
        # model; anything above 1e-2 means the optimizer path broke
        ds, model = setup
        ex = ds.examples[3]
        _, g = tinynn.loss_and_grad(model, [ex])
        cfg = AttackConfig(distance="l2", iterations=1000, lr=0.1, label_mode="inferred", seed=0)
        res = run_attack(model, g, (64,), cfg)
        assert res.label == ex.label
        assert float(np.mean((res.reconstructed - ex.input) ** 2)) < 1e-2

    def test_deterministic(self, setup):
        ds, model = setup
        _, g = tinynn.loss_and_grad(model, batch_for(ds, 4))
        labels = [e.label for e in batch_for(ds, 4)]
        cfg = AttackConfig(distance="neg_cosine_layerwise", iterations=50, lr=0.1,
                           label_mode="known", seed=9)
        r1 = run_attack(model, g, (3, 64), cfg, labels=labels)
        r2 = run_attack(model, g, (3, 64), cfg, labels=labels)
        np.testing.assert_array_equal(r1.reconstructed_batch, r2.reconstructed_batch)
        np.testing.assert_array_equal(r1.loss_trace, r2.loss_trace)

    def test_inferred_fallback_warns(self, setup):
        # no negative output-bias entry -> label inference is undecidable;
        # the attack should fall back to optimizing labels and say so
        ds, model = setup
        _, g = tinynn.loss_and_grad(model, [ds.examples[5]])
        g.layers[-1].bias_grad = np.abs(g.layers[-1].bias_grad)
        cfg = AttackConfig(distance="l2", iterations=5, lr=0.1, label_mode="inferred", seed=0)
        res = run_attack(model, g, (64,), cfg)
        assert res.warnings

    def test_optimized_labels_recover_class(self, setup):
        ds, model = setup
        ex = ds.examples[6]
        _, g = tinynn.loss_and_grad(model, [ex])
        cfg = AttackConfig(distance="l2", iterations=800, lr=0.1, label_mode="optimized", seed=1)
        res = run_attack(model, g, (64,), cfg)
        assert res.label == ex.label

    def test_known_mode_needs_labels(self, setup):
        ds, model = setup
        _, g = tinynn.loss_and_grad(model, [ds.examples[0]])
        cfg = AttackConfig(label_mode="known")
        with pytest.raises(InvalidConfig):
            run_attack(model, g, (64,), cfg)

    def test_accepts_packets(self, setup):
        ds, model = setup
        batch = batch_for(ds, 7)
        _, g = tinynn.loss_and_grad(model, batch)
        packets, _ = defense.defend_update(g, defense.DefenseConfig(method="none"))
        cfg = AttackConfig(distance="l2", iterations=5, lr=0.1, label_mode="known", seed=0)
        r_direct = run_attack(model, g, (3, 64), cfg, labels=[e.label for e in batch])
        r_packets = run_attack(model, packets, (3, 64), cfg, labels=[e.label for e in batch])
        np.testing.assert_array_equal(r_direct.loss_trace, r_packets.loss_trace)


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
        batch = batch_for(ds, 8)
        _, g = tinynn.loss_and_grad(model, batch)
        dcfg = ENGINE_DEFENSES[mode]
        packets, _ = defense.defend_update(g, dcfg, rng=np.random.default_rng(2))
        return model, packets, [e.label for e in batch], dcfg

    @pytest.mark.parametrize("label_mode", ["known", "optimized"])
    @pytest.mark.parametrize("distance", attack.DISTANCES)
    @pytest.mark.parametrize("mode", attack.ADAPTIVE_MODES)
    def test_restart_slices_equal_sequential_runs(self, setup, mode, distance, label_mode):
        model, observed, labels, dcfg = self.observed_for(setup, mode)
        cfg = AttackConfig(distance=distance, iterations=30, lr=0.1, label_mode=label_mode,
                           adaptive=mode, eot_samples=2, seed=40, defense=dcfg)
        kwargs = {"labels": labels} if label_mode == "known" else {}
        batched = run_attack(model, observed, (3, 64), cfg, restarts=3, **kwargs)
        singles = [
            run_attack(model, observed, (3, 64), replace(cfg, seed=40 + 1000 * j), **kwargs)
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
        run_attack(model, observed, (3, 64), cfg, restarts=3)
        assert len(calls) == 25

    @pytest.mark.parametrize("restarts", [0, -1, 1.5, True])
    def test_rejects_bad_restarts(self, setup, restarts):
        model, observed, labels, _ = self.observed_for(setup, "none")
        cfg = AttackConfig(iterations=2, label_mode="known")
        with pytest.raises(InvalidConfig):
            run_attack(model, observed, (3, 64), cfg, labels=labels, restarts=restarts)


class TestAdaptiveTransforms:
    def test_prune_mask_identity_when_no_zeros(self, setup):
        # with no exact zeros anywhere in the observed gradients the mask
        # passes everything through (real image gradients do contain
        # structural zeros from clipped pixels and dead ReLUs, so this needs
        # a dense observed set)
        ds, model = setup
        rng = np.random.default_rng(17)
        observed = GradSet(
            [
                LayerGrads(rng.normal(size=l.weight.shape), rng.normal(size=l.bias.shape))
                for l in model.layers
            ]
        )
        cfg_none = AttackConfig(distance="l2", iterations=10, lr=0.1, label_mode="known", seed=3)
        cfg_mask = AttackConfig(distance="l2", iterations=10, lr=0.1, label_mode="known",
                                seed=3, adaptive="prune_mask")
        r1 = run_attack(model, observed, (3, 64), cfg_none, labels=[0, 1, 2])
        r2 = run_attack(model, observed, (3, 64), cfg_mask, labels=[0, 1, 2])
        np.testing.assert_array_equal(r1.loss_trace, r2.loss_trace)

    def test_eot_requires_noise_config(self, setup):
        ds, model = setup
        _, g = tinynn.loss_and_grad(model, [ds.examples[0]])
        cfg = AttackConfig(adaptive="eot", eot_samples=4, label_mode="known")
        with pytest.raises(InvalidConfig):
            run_attack(model, g, (64,), cfg, labels=0)

    def test_replay_requires_defense_config(self, setup):
        ds, model = setup
        _, g = tinynn.loss_and_grad(model, [ds.examples[0]])
        cfg = AttackConfig(adaptive="defense_replay", label_mode="known")
        with pytest.raises(InvalidConfig):
            run_attack(model, g, (64,), cfg, labels=0)

    def test_replay_matches_defense_pipeline(self, setup):
        # the attacker's replay of the defense must reproduce what the
        # defender would transmit, up to factorization round-off; the replay
        # reads g in factored form, delta^T act / n with delta = n I, act = g
        rng = np.random.default_rng(4)
        g = rng.normal(size=(12, 9))
        dcfg = defense.DefenseConfig(method="svdefense", beta=0.3)
        pkt = defense.defend_grad_svd(g, beta=0.3)
        dummy = GradSet([LayerGrads(g[None].copy(), np.zeros((1, 12)))])
        cfg = AttackConfig(adaptive="defense_replay", label_mode="known", defense=dcfg)
        cache = ([g[None]], None, None, [12.0 * np.eye(12)[None]])
        replayed = attack._AdaptiveTransform(cfg, dummy, []).apply(dummy, cache)
        np.testing.assert_allclose(replayed.layers[0].weight_grad[0],
                                   defense.reconstruct_packet(pkt), atol=1e-8)

    @pytest.mark.parametrize("entropy_source", ["weighted", "unweighted"])
    @pytest.mark.parametrize("beta", [0.3, 1000.0])  # 1000: T rounds to 1
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_stacked_replay_equals_the_defender(self, n, beta, entropy_source):
        # restart stacks of delta^T act / n on a 32x64 layer and a 4x32 one
        # (p < n at n = 5); restart 1 of the first layer is all zero
        rng = np.random.default_rng(n)
        shapes = [(32, 64), (4, 32)]
        deltas = [rng.normal(size=(4, n, p)) for p, _ in shapes]
        acts = [rng.uniform(size=(4, n, q)) for _, q in shapes]
        deltas[0][1] = 0.0
        dummy = tinynn.grads_from_deltas(acts, deltas, n)
        dcfg = defense.DefenseConfig(method="svdefense", beta=beta, entropy_source=entropy_source)
        cfg = AttackConfig(adaptive="defense_replay", label_mode="known", defense=dcfg)
        transform = attack._AdaptiveTransform(cfg, dummy, [])
        out = transform.apply(dummy, (acts, None, None, deltas))
        assert [proj[0] for proj in transform._projectors] == [0, 1]
        for l, _, u, _ in transform._projectors:
            for g, r, u_j in zip(dummy.layers[l].weight_grad, out.layers[l].weight_grad, u):
                pkt = defense.defend_grad_svd(g, beta, entropy_source=entropy_source)
                assert np.count_nonzero(u_j.any(axis=0)) == np.count_nonzero(pkt.sigma_star)
                np.testing.assert_allclose(r, defense.reconstruct_packet(pkt), rtol=0,
                                           atol=1e-8 * np.linalg.norm(g))

    def test_eot_noise_variance_shrinks(self):
        # averaging n draws leaves variance sigma^2 / n
        rng = np.random.default_rng(5)
        cfg = AttackConfig(
            adaptive="eot", eot_samples=16, label_mode="known",
            defense=defense.DefenseConfig(method="dp_gauss", noise_scale=0.5),
        )
        observed = GradSet([LayerGrads(np.zeros((50, 40)), np.zeros(50))])
        transform = attack._AdaptiveTransform(cfg, observed, [rng])
        out = transform.apply(GradSet([LayerGrads(np.zeros((1, 50, 40)), np.zeros((1, 50)))]))
        sample_var = float(np.var(out.layers[0].weight_grad))
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
