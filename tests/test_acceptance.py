"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them as they complete).

The criteria pin exact numerical properties, independent-oracle agreement,
and the comparative orderings the framework is supposed to reproduce, at
fixed tolerances. Expensive attack arms are computed once in a shared
fixture and reused.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    bias_division_read,
    fedavg_reference,
    gram_singular_values,
    max_relative_grad_error,
    numeric_gradients,
    one_hot_grads,
    parameter_count,
    singular_entropy,
    span_read,
    spearman,
    truncate_by_energy,
    upload,
)
from svdlab import attack, cli, data, defense, flsim, linalg, metrics, tinynn


def report(num, name, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


# ---------------------------------------------------------------------------
# shared attack study (criteria 7 and 8)

ATTACK_TARGETS = 20
ATTACK_BATCH = 3
ATTACK_RESTARTS = 3
ATTACK_ITERS = 2000


def _study_batch(ds, target, size):
    """The target example and the first companions of distinct labels."""
    batch = [target]
    used = {ds.y[target]}
    for j, label in enumerate(ds.y):
        if len(batch) == size:
            break
        if label not in used:
            batch.append(j)
            used.add(label)
    return batch


def _best_of(model, observed, cfg, faced, labels, seed):
    return attack.run_attack(model, observed, cfg, faced, labels, seed, restarts=ATTACK_RESTARTS)


def _public_priors():
    """Each class's mean image in a public split disjoint from the targets'."""
    public = data.make_synthetic(4, 30, 8, seed=12)
    return np.array([public.x[public.y == c].mean(axis=0) for c in range(4)])


@pytest.fixture(scope="session")
def attack_study():
    """MSE ("mse") and residual cosine against _public_priors ("cos") per
    target for every attack/defense arm used by the orderings."""
    priors = _public_priors()
    ds = data.make_synthetic(4, 30, 8, seed=11)
    model = tinynn.init_model(64, [32], 4, seed=5)
    none_cfg = defense.DefenseConfig(method="none")
    svd_cfg = defense.DefenseConfig(method="svdefense", beta=0.3)
    prune_cfg = defense.DefenseConfig(method="prune", prune_rate=0.9)
    base = attack.AttackConfig(
        distance="neg_cosine_layerwise", iterations=ATTACK_ITERS, lr=0.1,
    )
    arms = {k: [] for k in ("none", "svdef", "replay", "prune_plain", "prune_adapt")}
    for i in range(ATTACK_TARGETS):
        batch = _study_batch(ds, i, ATTACK_BATCH)
        labels = ds.y[batch]
        truth = ds.x[i]
        grads = one_hot_grads(model, ds.x[batch], labels)

        def run(observed, c, faced):  # restart j of target i draws from [100 + i, j]
            recon = _best_of(model, observed, c, faced, labels, [100 + i]).reconstructed_batch[0]
            return metrics.mse(truth, recon), metrics.residual_cosine(truth, recon, priors[labels[0]])

        arms["none"].append(run(upload(grads), base, none_cfg))
        packets, _ = defense.defend_update(grads, svd_cfg, seed=0)
        arms["svdef"].append(run(packets, base, svd_cfg))
        arms["replay"].append(run(packets, replace(base, adaptive="defense_replay"), svd_cfg))
        pruned, _ = defense.defend_update(grads, prune_cfg, seed=0)
        arms["prune_plain"].append(run(pruned, base, prune_cfg))
        arms["prune_adapt"].append(run(pruned, replace(base, adaptive="prune_mask"), prune_cfg))
    scores = {k: np.array(v) for k, v in arms.items()}
    return {"mse": {k: v[:, 0] for k, v in scores.items()},
            "cos": {k: v[:, 1] for k, v in scores.items()}}


# ---------------------------------------------------------------------------


def test_c01_svd_matches_gram_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst_recon = 0.0
    worst_sigma = 0.0
    for _ in range(200):
        p = int(rng.integers(2, 65))
        q = int(rng.integers(2, 49))
        w = rng.normal(size=(p, q))
        f = linalg.svd(w)
        worst_recon = max(
            worst_recon, np.linalg.norm(f.assemble() - w) / np.linalg.norm(w)
        )
        ref = gram_singular_values(w)
        worst_sigma = max(worst_sigma, float(np.max(np.abs(f.sigma - ref[: len(f.sigma)]))))
    elapsed = time.monotonic() - start
    ok = worst_recon <= 1e-8 and worst_sigma <= 1e-8 and elapsed < 10.0
    report(
        1, "svd vs gram-eigenvalue oracle", ok,
        f"recon {worst_recon:.2e}, sigma err {worst_sigma:.2e}, {elapsed:.1f}s",
    )


def test_c02_truncation_residual_bounds():
    start = time.monotonic()
    rng = np.random.default_rng(77)
    violations = 0
    for _ in range(100):
        p, q = int(rng.integers(2, 40)), int(rng.integers(2, 30))
        w = rng.normal(size=(p, q))
        t = float(rng.uniform(0.0, 0.999))
        plain = truncate_by_energy(linalg.svd(w), t)
        if np.linalg.norm(w - plain.assemble()) > math.sqrt(1 - t) * np.linalg.norm(w) * (
            1 + 1e-9
        ) + 1e-12:
            violations += 1
    for _ in range(100):
        p, q = int(rng.integers(2, 40)), int(rng.integers(2, 30))
        w = rng.normal(size=(p, q))
        t = float(rng.uniform(0.0, 0.999))
        cw = defense.channel_weights(w)
        trunc = truncate_by_energy(linalg.svd(cw[:, None] * w), t)
        recon = trunc.assemble() / cw[:, None]
        bound = (cw.max() / cw.min()) * math.sqrt(1 - t) * np.linalg.norm(w)
        if np.linalg.norm(w - recon) > bound * (1 + 1e-9) + 1e-12:
            violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 5.0
    report(2, "truncation residual bounds", ok, f"{violations} violations, {elapsed:.1f}s")


def test_c03_gradients_match_finite_differences():
    start = time.monotonic()
    rng = np.random.default_rng(404)
    model = tinynn.init_model(64, [32], 4, seed=9)
    worst = 0.0
    for _ in range(10):
        draws = [(rng.uniform(0, 1, 64), int(rng.integers(4))) for _ in range(4)]
        x, labels = np.array([d[0] for d in draws]), np.array([d[1] for d in draws])
        grads = one_hot_grads(model, x, labels)
        numeric = numeric_gradients(model, x, labels, h=1e-5)
        worst = max(worst, max_relative_grad_error(grads, numeric))
    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and elapsed < 30.0
    report(3, "analytic vs finite-difference gradients", ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_c04_threshold_law_exactness():
    zero_ok = all(defense.adaptive_threshold(0.0, b) == 0.0 for b in (0.05, 0.3, 2.0))
    ref = defense.adaptive_threshold(0.6534, 0.3)
    ref_ok = abs(ref - 0.1780) <= 1e-4
    grid = [defense.adaptive_threshold(e, 0.3) for e in np.linspace(0.0, 10.0, 100)]
    mono_ok = all(a < b for a, b in zip(grid, grid[1:]))
    ok = zero_ok and ref_ok and mono_ok
    report(4, "adaptive threshold law", ok, f"T(0.6534, 0.3) = {ref:.6f}")


def test_c05_fedavg_degeneracy():
    fl = flsim.FlConfig(
        num_clients=4, clients_per_round=2, rounds=5, local_batch_size=8,
        local_lr=0.5, defense=defense.DefenseConfig(method="none"), seed=21,
    )
    dc = flsim.DataConfig(num_classes=4, per_class=20, per_class_test=5, side=8)
    train, _, shards, model = flsim.build_experiment(fl, dc)
    reports, final = flsim.run_experiment(fl, dc)
    ref = fedavg_reference(
        model, train, shards, [r.selected_clients for r in reports],
        fl.local_lr, fl.local_batch_size, fl.local_epochs, fl.seed,
    )
    worst = 0.0
    for a, b in zip(final.layers, ref.layers):
        worst = max(worst, float(np.max(np.abs(a.weight - b.weight))))
        worst = max(worst, float(np.max(np.abs(a.bias - b.bias))))
    ok = worst <= 1e-12
    report(5, "plain federated averaging equivalence", ok, f"max param diff {worst:.2e}")


def test_c06_entropy_tracks_class_balance():
    start = time.monotonic()
    rhos, entropies = [], []
    for seed in range(5):
        ds = data.make_synthetic(4, 40, 8, seed=50 + seed)
        model = tinynn.init_model(64, [32], 4, seed=200 + seed)
        for rho in np.arange(0.1, 1.05, 0.1):
            shard = data.partition_rho(ds, float(rho), seed=300 + seed)[0]
            grads = one_hot_grads(model, ds.x[shard], ds.y[shard])
            per_layer = [singular_entropy(linalg.svd(w).sigma) for w in grads[::2]]
            rhos.append(float(rho))
            entropies.append(float(np.mean(per_layer)))
    corr = spearman(rhos, entropies)
    elapsed = time.monotonic() - start
    ok = corr > 0.7 and elapsed < 120.0
    report(6, "entropy vs class-balance correlation", ok, f"spearman {corr:.3f}, {elapsed:.1f}s")


def _mean_cos(attack_study, *arms):
    return ", ".join(f"{arm} {attack_study['cos'][arm].mean():+.3f}" for arm in arms)


def test_c07_defense_ordering(attack_study):
    none_mse = attack_study["mse"]["none"]
    svdef_mse = attack_study["mse"]["svdef"]
    ratios_ok = np.sum(svdef_mse >= 5.0 * none_mse)
    frac = ratios_ok / len(none_mse)
    mean_ok = float(svdef_mse.mean()) > 5.0 * float(none_mse.mean())
    ok = len(none_mse) >= 20 and frac >= 0.8 and mean_ok
    report(
        7, "low-rank defense degrades reconstruction 5x", ok,
        f"{ratios_ok}/{len(none_mse)} pairs >= 5x, means {none_mse.mean():.2e} -> {svdef_mse.mean():.2e}"
        f"; mean residual cos {_mean_cos(attack_study, 'none', 'svdef')}",
    )


def test_c08_adaptive_attack_ordering(attack_study):
    plain = attack_study["mse"]["prune_plain"]
    adapt = attack_study["mse"]["prune_adapt"]
    replay = attack_study["mse"]["replay"]
    none_mse = attack_study["mse"]["none"]
    prune_ok = float(adapt.mean()) < float(plain.mean())
    replay_ok = float(replay.mean()) >= 5.0 * float(none_mse.mean())
    ok = len(plain) >= 20 and prune_ok and replay_ok
    report(
        8, "adaptive attack ordering", ok,
        f"prune {plain.mean():.3f} -> masked {adapt.mean():.3f}; replay {replay.mean():.3f} "
        f"vs none {none_mse.mean():.2e}; mean residual cos "
        f"{_mean_cos(attack_study, 'prune_plain', 'prune_adapt', 'replay', 'none')}",
    )


def test_c09_averaged_noise_variance():
    rng = np.random.default_rng(1234)
    draws = 10_000
    worst_rel = 0.0
    for dist in ("dp_gauss", "dp_lap"):
        scale = 0.5
        base_var = scale**2 if dist == "dp_gauss" else 2.0 * scale**2
        faced = defense.DefenseConfig(method=dist, noise_scale=scale)
        for n in (4, 16):
            shape = (draws,)
            if dist == "dp_gauss":
                eta = rng.normal(0.0, scale, size=shape)
            else:
                eta = rng.laplace(0.0, scale, size=shape)
            assert attack.pairing_errors("eot", faced) == []
            eta_bar = attack._mean_noise(rng, faced, n, shape)
            combined = float(np.var(eta - eta_bar))
            expected = base_var * (n + 1) / n
            worst_rel = max(worst_rel, abs(combined - expected) / expected)
    ok = worst_rel <= 0.05
    report(9, "averaged-noise variance growth", ok, f"worst rel dev {worst_rel:.3f}")


def test_c10_communication_accounting():
    rng = np.random.default_rng(55)
    w = rng.normal(size=(64, 64))
    factors = linalg.svd(w)
    energy = np.cumsum(np.square(factors.sigma)) / np.sum(np.square(factors.sigma))
    threshold = float((energy[6] + energy[7]) / 2.0)  # lands exactly on k = 8
    trunc = truncate_by_energy(factors, threshold)
    assert len(trunc.sigma) == 8
    pkt = defense.DefensePacket(
        channel_weights=np.ones(64), u_star=trunc.u,
        sigma_star=trunc.sigma, vt_star=trunc.vt, entropy=1.0,
    )
    count = parameter_count(pkt)
    reduction = metrics.comm_reduction(count, 64 * 64)
    count_ok = count == 1097
    red_ok = abs(reduction - 73.2) <= 0.1

    fl = flsim.FlConfig(
        num_clients=4, clients_per_round=2, rounds=3, local_batch_size=8,
        local_lr=0.5, defense=defense.DefenseConfig(method="none"), seed=31,
    )
    dc = flsim.DataConfig(num_classes=4, per_class=20, per_class_test=5, side=8)
    bytes_none = sum(r.bytes_up for r in flsim.run_experiment(fl, dc)[0])
    fl_svd = replace(fl, defense=defense.DefenseConfig(method="svdefense", beta=0.3))
    bytes_svd = sum(r.bytes_up for r in flsim.run_experiment(fl_svd, dc)[0])
    run_ok = bytes_svd < bytes_none
    ok = count_ok and red_ok and run_ok
    report(
        10, "communication accounting", ok,
        f"params {count}, reduction {reduction:.1f}%, run bytes {bytes_svd} < {bytes_none}",
    )


def test_c11_utility_preserved():
    start = time.monotonic()
    diffs = []
    none_accs = []
    for seed in (101, 202, 303):
        fl = flsim.FlConfig(
            num_clients=8, clients_per_round=4, rounds=30, local_batch_size=8,
            local_lr=0.5, dirichlet_alpha=0.5,
            defense=defense.DefenseConfig(method="none"), seed=seed,
        )
        dc = flsim.DataConfig(num_classes=4, per_class=40, per_class_test=10, side=8)
        acc_none = flsim.run_experiment(fl, dc)[0][-1].accuracy
        fl_svd = replace(fl, defense=defense.DefenseConfig(method="svdefense", beta=0.3))
        acc_svd = flsim.run_experiment(fl_svd, dc)[0][-1].accuracy
        none_accs.append(acc_none)
        diffs.append(abs(acc_svd - acc_none))
    elapsed = time.monotonic() - start
    ok = all(d <= 0.05 for d in diffs) and min(none_accs) > 0.85 and elapsed < 900.0
    report(
        11, "model utility preserved under defense", ok,
        f"acc diffs {['%.3f' % d for d in diffs]}, baseline accs "
        f"{['%.3f' % a for a in none_accs]}, {elapsed:.0f}s",
    )


def test_c12_byte_identical_reruns(tmp_path):
    cfg = {
        "seed": 5,
        "data": {"num_classes": 4, "per_class": 20, "per_class_test": 5, "side": 8},
        "fl": {
            "num_clients": 4, "clients_per_round": 2, "rounds": 3,
            "local_batch_size": 8, "local_lr": 0.5,
            "defense": {"method": "svdefense", "beta": 0.3},
        },
        "attack": {
            "distance": "neg_cosine_layerwise", "iterations": 60, "lr": 0.1,
            "batch_size": 3, "n_examples": 2, "restarts": 1,
        },
    }
    import json

    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["train", "--config", str(config_path), "--out", str(out)]) == 0
        assert cli.main(["attack", "--config", str(config_path), "--out", str(out / "atk")]) == 0
        outs.append(out)
    same_rounds = (outs[0] / "rounds.csv").read_bytes() == (outs[1] / "rounds.csv").read_bytes()
    same_model = (outs[0] / "model.bin").read_bytes() == (outs[1] / "model.bin").read_bytes()
    same_attack = (outs[0] / "atk" / "attack.csv").read_bytes() == (
        outs[1] / "atk" / "attack.csv"
    ).read_bytes()
    ok = same_rounds and same_model and same_attack
    report(12, "byte-identical reruns", ok, f"rounds {same_rounds}, model {same_model}, attack {same_attack}")


def test_c13_aggregation_under_class_imbalance(monkeypatch):
    # the lab does not reproduce the paper's Layer-Wise Weighted Aggregation
    # "under class imbalance" as it reads it (entropy x sample count per
    # tensor, flsim.aggregation_weights): on 12 classes split by Dirichlet
    # 0.1, svdefense at beta 0.3 ends 16 seeds at mean accuracy 0.811 (min
    # 0.225) under that rule and 0.981 (min 0.875) with sample counts alone
    # (counts better on 11 seeds, worse on 2). The gate pins that gap. Each
    # arm's per-class accuracy shows which classes the entropy rule starves
    start = time.monotonic()
    dc = flsim.DataConfig(num_classes=12, per_class=20, per_class_test=20, side=8)

    def by_counts(updates, tensor_id):
        counts = np.array([float(u.sample_count) for u in updates])
        return counts / counts.sum()

    arms = {"entropy": flsim.aggregation_weights, "counts": by_counts}
    final = {arm: [] for arm in arms}
    per_class = {arm: [] for arm in arms}
    for seed in range(1000, 1016):
        fl = flsim.FlConfig(num_clients=8, clients_per_round=4, rounds=30, local_lr=0.5,
                            dirichlet_alpha=0.1, seed=seed,
                            defense=defense.DefenseConfig(method="svdefense", beta=0.3))
        test = flsim.build_experiment(fl, dc)[1]
        for arm, rule in arms.items():
            monkeypatch.setattr(flsim, "aggregation_weights", rule)
            reports, model = flsim.run_experiment(fl, dc)
            final[arm].append(reports[-1].accuracy)
            per_class[arm].append([tinynn.accuracy(model, test.x[test.y == c], test.y[test.y == c])
                                   for c in range(dc.num_classes)])
    entropy, counts = np.array(final["entropy"]), np.array(final["counts"])
    for arm in arms:  # (seed, class) accuracies
        rows = np.array(per_class[arm])
        print(f"\n  {arm:>7} per-class accuracy, mean over seeds: "
              f"{' '.join(f'{a:.2f}' for a in rows.mean(axis=0))}; {np.sum(rows < 0.5)} of "
              f"{rows.size} (seed, class) pairs below 0.5, {np.sum(rows == 0.0)} at 0")
    wins, losses = int(np.sum(counts > entropy)), int(np.sum(counts < entropy))
    elapsed = time.monotonic() - start
    ok = counts.mean() - entropy.mean() >= 0.1 and wins > 2 * losses and elapsed < 60.0
    report(
        13, "aggregation under class imbalance (not reproduced)", ok,
        f"entropy x count {entropy.mean():.3f} (min {entropy.min():.3f}) vs counts "
        f"{counts.mean():.3f} (min {counts.min():.3f}); counts better on {wins}, worse on "
        f"{losses} of {len(counts)} seeds, {elapsed:.1f}s",
    )


def test_c14_rank_the_threshold_keeps(monkeypatch):
    # at the default beta 0.3 the energy threshold keeps rank 1 on every
    # defended weight of a default run; at beta 10, on c06's grid, layer 0's
    # rank follows the class balance rho (Spearman 0.847 when pinned). k is
    # the length of each packet's sigma_star
    start = time.monotonic()
    ks, defend_update = [], defense.defend_update

    def recording(*args, **kwargs):
        packets, residual = defend_update(*args, **kwargs)
        ks.extend(len(p.sigma_star) for p in packets if p.values is None)
        return packets, residual

    monkeypatch.setattr(defense, "defend_update", recording)
    flsim.run_experiment(flsim.FlConfig(defense=defense.DefenseConfig(method="svdefense")),
                         flsim.DataConfig())
    default_ok = len(ks) == 80 and set(ks) == {1}  # 10 rounds x 4 clients x 2 weights

    rhos, ranks = [], []
    for seed in range(5):
        ds = data.make_synthetic(4, 40, 8, seed=50 + seed)
        model = tinynn.init_model(64, [32], 4, seed=200 + seed)
        for rho in np.arange(0.1, 1.05, 0.1):
            shard = data.partition_rho(ds, float(rho), seed=300 + seed)[0]
            grads = one_hot_grads(model, ds.x[shard], ds.y[shard])
            rhos.append(round(float(rho), 1))
            ranks.append(len(defense.defend_grad_svd(grads[0], beta=10.0).sigma_star))
    corr = spearman(rhos, ranks)
    mean_k = {r: float(np.mean([k for q, k in zip(rhos, ranks) if q == r])) for r in (0.1, 1.0)}
    elapsed = time.monotonic() - start
    ok = default_ok and corr > 0.8 and mean_k[0.1] == 1.0 and mean_k[1.0] >= 4.0 and elapsed < 30.0
    report(
        14, "rank the energy threshold keeps", ok,
        f"beta 0.3: k = 1 on {ks.count(1)}/{len(ks)} packets; beta 10: spearman(rho, k) "
        f"{corr:.3f}, mean k {mean_k[0.1]:.1f} at rho 0.1 -> {mean_k[1.0]:.1f} at 1.0, {elapsed:.1f}s",
    )


def test_c16_closed_form_read_of_the_kept_factors(attack_study):
    # an attacker with the batch's labels and a class-mean prior from a
    # disjoint public split reads the target out of layer 0's kept right
    # singular vectors by least squares, with no optimizer: at beta 0.3 it
    # scores a residual cosine cos(est, truth - prior) of +0.205 on average
    # at batch 3 (19 of 20 targets positive) and at least +0.939 on every
    # target at batch 1, where the kept rank-1 factor is lossless. The read
    # leaks more than attack_study's optimizer replaying the same defense
    start = time.monotonic()
    priors = _public_priors()
    ds = data.make_synthetic(4, 30, 8, seed=11)
    model = tinynn.init_model(64, [32], 4, seed=5)
    svd_cfg = defense.DefenseConfig(method="svdefense", beta=0.3)
    cos = {}
    for size in (1, ATTACK_BATCH):
        cos[size] = []
        for i in range(ATTACK_TARGETS):
            batch = _study_batch(ds, i, size)
            labels = ds.y[batch]
            grads = one_hot_grads(model, ds.x[batch], labels)
            packets, _ = defense.defend_update(grads, svd_cfg, seed=0)
            est = span_read(packets[0].vt_star, priors, labels)
            residual = ds.x[i] - priors[labels[0]]
            cos[size].append(est @ residual / (np.linalg.norm(est) * np.linalg.norm(residual)))
    one, three = np.array(cos[1]), np.array(cos[ATTACK_BATCH])
    replay = float(attack_study["cos"]["replay"].mean())
    elapsed = time.monotonic() - start
    ok = (len(three) >= 20 and three.mean() > 0.15 and np.sum(three > 0.0) >= 15
          and one.min() > 0.9 and three.mean() > replay)
    report(
        16, "closed-form read of the kept factors", ok,
        f"batch 3: mean residual cos {three.mean():+.3f} (replaying optimizer {replay:+.3f}), "
        f"{np.sum(three > 0.0)}/{len(three)} positive; batch 1: min {one.min():+.3f}; "
        f"{elapsed:.2f}s",
    )


def test_c19_one_division_returns_a_batch_1_input():
    # at batch 1 the weight gradient is rank 1, so svdefense keeps all of it
    # and the bias travels raw: W_j / b_j of the decoded upload returns the
    # input to rounding with no optimizer at beta 0.3 and 10, while every baseline
    # defense damages the read on all 20 targets. At batches 2 and 3 each arm
    # scores the larger mean residual cosine, against c16's priors, of two
    # reads: the division by the live row whose quotient is nearest the
    # target's prior, and c16's span read (of the kept vt, or of a raw
    # weight's top 3 right singular vectors). The division still returns an
    # undefended target exactly but reads svdefense at most +0.10; c16's read
    # scores svdefense +0.19 to +0.22, between dp_gauss 0.1 and 0.01
    start = time.monotonic()
    priors = _public_priors()
    ds = data.make_synthetic(4, 30, 8, seed=11)
    model = tinynn.init_model(64, [32], 4, seed=5)
    arms = {
        "svdefense 0.3": defense.DefenseConfig(method="svdefense", beta=0.3),
        "svdefense 10": defense.DefenseConfig(method="svdefense", beta=10.0),
        "none": defense.DefenseConfig(method="none"),
        "prune 0.9": defense.DefenseConfig(method="prune", prune_rate=0.9),
        "dgp": defense.DefenseConfig(method="dgp"),
        "dp_gauss 0.01": defense.DefenseConfig(method="dp_gauss", noise_scale=0.01),
        "dp_gauss 0.1": defense.DefenseConfig(method="dp_gauss", noise_scale=0.1),
    }
    errors = {name: [] for name in arms}
    reads = {(size, name): [] for size in (2, 3) for name in arms}  # (span, division) cosines
    for size, i in itertools.product((1, 2, 3), range(ATTACK_TARGETS)):
        batch = _study_batch(ds, i, size)
        labels = ds.y[batch]
        grads = one_hot_grads(model, ds.x[batch], labels)
        prior = priors[labels[0]]
        residual = ds.x[i] - prior
        for name, cfg in arms.items():
            packets, _ = defense.defend_update(grads, cfg, seed=0)
            decoded = defense.packets_to_gradset(packets, model)
            if size == 1:
                est = bias_division_read(decoded[0], decoded[1])
                errors[name].append(float(np.max(np.abs(est - ds.x[i]))))
                continue
            vt = packets[0].vt_star if packets[0].values is None else linalg.svd(decoded[0]).vt[:3]
            ests = (span_read(vt, priors, labels),
                    bias_division_read(decoded[0], decoded[1], prior) - prior)
            reads[size, name].append([e @ residual / (np.linalg.norm(e) * np.linalg.norm(residual))
                                      for e in ests])
    exact = {n: max(e) for n, e in errors.items() if n.startswith(("svdefense", "none"))}
    damaged = {n: min(e) for n, e in errors.items() if n not in exact}
    span, division = ({key: float(np.mean(r, axis=0)[m]) for key, r in reads.items()}
                      for m in (0, 1))
    score = {key: max(span[key], division[key]) for key in reads}
    elapsed = time.monotonic() - start
    ok = (len(errors["none"]) >= 20 and max(exact.values()) <= 1e-12
          and min(damaged.values()) >= 0.05
          and all(division[size, "none"] > 0.999
                  and division[size, "svdefense 0.3"] <= 0.10
                  and division[size, "svdefense 10"] <= 0.10
                  and score[size, "dp_gauss 0.1"] < score[size, "svdefense 0.3"]
                  < score[size, "dp_gauss 0.01"]
                  for size in (2, 3)))
    report(
        19, "reads with no optimizer: one division at batch 1, two reads at 2 and 3", ok,
        "largest error " + ", ".join(f"{n} {e:.1e}" for n, e in exact.items())
        + "; smallest error " + ", ".join(f"{n} {e:.3f}" for n, e in damaged.items())
        + "".join(f"; batch {size} score (span, division) "
                  + ", ".join(f"{n} {score[size, n]:+.3f} ({span[size, n]:+.3f}, "
                              f"{division[size, n]:+.3f})" for n in arms)
                  for size in (2, 3))
        + f"; {elapsed:.2f}s",
    )
