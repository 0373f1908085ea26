"""Gradient inversion engine.

Given a model and one client's (possibly defended) gradients, the engine
optimizes dummy inputs, and optionally dummy labels, so the gradients they
would produce match the observed ones. The matching loss is differentiated
through the network's own backward pass analytically (second-order ReLU terms
vanish almost everywhere), so no autodiff framework is involved and runs are
bit-deterministic for a fixed seed.

Adaptive modes mirror what an attacker who knows the defense would do:
re-apply a detected prune mask, average away injected noise, or replay the
low-rank defense pipeline on the dummy gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import defense, linalg, schema, tinynn
from .errors import InvalidConfig, UndeterminedLabel, numerical_failure
from .tinynn import KIND_RELU, ModelParams

DISTANCES = ("l2", "neg_cosine_layerwise")
ADAPTIVE_MODES = ("none", "prune_mask", "eot", "defense_replay")
LABEL_MODES = ("known", "inferred", "optimized")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class AttackConfig:
    distance: str = field(default="l2", metadata={"choices": DISTANCES})
    iterations: int = field(default=1000, metadata={"ge": 1})
    lr: float = field(default=0.1, metadata={"gt": 0})
    tv_weight: float = field(default=0.0, metadata={"ge": 0})
    label_mode: str = field(default="known", metadata={"choices": LABEL_MODES})
    adaptive: str = field(default="none", metadata={"choices": ADAPTIVE_MODES})
    eot_samples: int = field(default=1, metadata={"ge": 1})
    seed: int = field(default=0, metadata={"derived": "seed"})
    # known to adaptive attackers
    defense: defense.DefenseConfig | None = field(
        default=None, metadata={"derived": "fl.defense"}
    )

    def validate(self) -> list[str]:
        errors, d = schema.check(self), self.defense
        if d is not None and d.validate():  # those errors are fl.defense's to report
            return errors
        if self.adaptive == "eot" and (
            d is None or d.method not in defense.NOISE_METHODS or d.noise_scale <= 0.0
        ):
            errors.append("adaptive 'eot' requires fl.defense.method dp_gauss or dp_lap "
                          "with noise_scale > 0")
        if self.adaptive == "defense_replay" and (d is None or d.method != "svdefense"):
            errors.append("adaptive 'defense_replay' requires fl.defense.method svdefense")
        return errors


@dataclass
class AttackResult:
    label: int  # of the first slot: recovered under optimized or inferred labels
    loss_trace: np.ndarray  # distance value per iteration
    final_distance: float  # min over the trace
    best_iteration: int
    reconstructed_batch: np.ndarray  # all slots at the best iterate, clamped to [0, 1]
    restart: int  # index of the winning restart
    warnings: list[str] = field(default_factory=list)


def _unit_vectors(observed: list) -> list:
    """Each observed layer's weight+bias vector over its norm (None if zero),
    scaled exactly first so that the norm cannot underflow or overflow."""
    vs = [linalg._unit_scale(np.concatenate([w.ravel(), b]))[0]
          for w, b in zip(observed[::2], observed[1::2])]
    return [v / math.sqrt(v.dot(v)) if v.any() else None for v in vs]


def _distance_with_sens(observed: list, dummy: list, metric: str, units=None):
    """Distance plus its gradient with respect to every dummy tensor, for two
    gradient sets in wire order. l2: total squared entry difference;
    neg_cosine_layerwise: per layer, 1 - cosine of the flattened weight+bias
    vectors, 0 where either has zero norm. Dummy tensors may carry leading
    (restart) axes; the distance then has those axes, each slice computed
    exactly as it would be alone. `units` are the _unit_vectors of
    `observed`, computed here when not given."""
    lead = dummy[1].shape[:-1]
    total = np.zeros(lead)
    sens = []
    units = units or _unit_vectors(observed)
    for ow, ob, w, b, ou in zip(observed[::2], observed[1::2], dummy[::2], dummy[1::2], units):
        if metric == "l2":
            dw, db = w - ow, b - ob
            total += (dw * dw).reshape(*lead, -1).sum(axis=-1) + (db * db).sum(axis=-1)
            sens += [2.0 * dw, 2.0 * db]
            continue
        # dummy vectors d are scaled exactly by 2**-e; 1 - cos(d, o) has the
        # gradient (cos * d / |d| - o / |o|) / |d|
        dvs, e = linalg._unit_scale(np.concatenate([w.reshape(*lead, -1), b], axis=-1), -1)
        gvecs = np.zeros_like(dvs)
        for j in np.ndindex(lead):
            dv = dvs[j]  # Python floats: vectorized norms and dots round otherwise
            nd = math.sqrt(dv.dot(dv))
            if ou is None or nd == 0.0:
                continue
            c = float(dv @ ou) / nd
            total[j] += 1.0 - c
            gvecs[j] = ((c / nd) * dv - ou) * math.ldexp(1.0 / nd, -int(e[j][0]))
        sens += [gvecs[..., :ow.size].reshape(w.shape), gvecs[..., ow.size:]]
    return total, sens


def _replay_projectors(cache, beta: float) -> list:
    """(layer, a, b, touched) for each stacked weight gradient g = delta^T act
    / n of at least 2x2 in a backprop cache. The defense replays as g -> a b^T
    g, with a = u / w and b = w u (..., p, m): w (..., p, 1) holds the channel
    weights, scaled exactly to a maximum in [0.5, 1), and the columns of u the
    left singular vectors of w g that the defense keeps. Its pullback is
    s -> b a^T s; touched says whether g is nonzero. g itself is never formed:
    a thin QR act^T = Q R gives g = K Q^T with K = delta^T R^T / n, p x min(n,
    q), and since Q^T has orthonormal rows, K has g's row norms, singular
    values and left singular vectors. So w comes from K, u from one SVD of
    w K, and k from defense.rank_rule, for all layers at once: zero-padding
    to one shape changes no singular value or vector."""
    acts, _, _, deltas = cache
    ids = [l for l, (a, d) in enumerate(zip(acts, deltas)) if min(a.shape[-1], d.shape[-1]) >= 2]
    if not ids:
        return []
    dims = [(deltas[l].shape[-1], acts[l].shape[-1]) for l in ids]
    (p, q), lead = map(max, zip(*dims)), (len(ids), *acts[0].shape[:-1])
    delta, act = np.zeros((*lead, p)), np.zeros((*lead, q))
    for i, (l, (p_l, q_l)) in enumerate(zip(ids, dims)):
        delta[i, ..., :p_l], act[i, ..., :q_l] = deltas[l], acts[l]
    r = np.linalg.qr(act.swapaxes(-1, -2), mode="r")
    k_mat = delta.swapaxes(-1, -2) @ r.swapaxes(-1, -2) / act.shape[-2]
    w = linalg._unit_scale(defense.channel_weights(k_mat), -1)[0][..., None]
    u, sig, _ = np.linalg.svd(w * k_mat, full_matrices=False)
    k = defense.rank_rule(sig, beta)[0]
    u = u * (np.arange(sig.shape[-1]) < k[..., None])[..., None, :]
    a, b, touched = u / w, w * u, k_mat.any(axis=(-2, -1))[..., None, None]
    return [(l, a[i, ..., :p_l, :], b[i, ..., :p_l, :], touched[i])
            for i, (l, (p_l, _)) in enumerate(zip(ids, dims))]


def _adaptive_view(cfg: AttackConfig, masks, rngs, dummy: list, cache):
    """(view, pullback): the dummy gradients as the adaptive attacker compares
    them, and the pullback of distance sensitivities through that view.
    Tensors carry a leading restart axis; restart j draws its EOT noise from
    rngs[j]. The prune mask (`masks`, the observed nonzeros) is its own
    pullback; eot and none pull back through the identity. The replay builds
    every restart's projector a b^T once from the tinynn.backprop `cache` and
    maps g -> a b^T g and s -> b a^T s (all-zero matrices pass). That
    pullback holds the projector fixed: it is the adjoint of a b^T, not the
    derivative of the defense, so finite differences do not check it."""
    mode = cfg.adaptive
    if mode == "prune_mask":
        def mask(grads):
            return [t * m for t, m in zip(grads, masks)]
        return mask(dummy), mask
    if mode != "defense_replay":
        if mode == "eot":
            d, n = cfg.defense, cfg.eot_samples
            dummy = [np.stack([tj + _mean_noise(rng, d, n, tj.shape) for tj, rng in zip(t, rngs)])
                     for t in dummy]
        return dummy, lambda sens: sens
    projectors = _replay_projectors(cache, cfg.defense.beta)

    def replayed(grads, adjoint: bool):
        ts = list(grads)
        for l, a, b, touched in projectors:
            g = ts[2 * l]
            ts[2 * l] = (np.where(touched, b @ (a.swapaxes(-1, -2) @ g), g) if adjoint
                         else a @ (b.swapaxes(-1, -2) @ g))
        return ts

    return replayed(dummy, False), lambda sens: replayed(sens, True)


def _mean_noise(rng: np.random.Generator, d: defense.DefenseConfig, n: int, shape) -> np.ndarray:
    """The mean of n defense.noise draws of `shape`."""
    return defense.noise(rng, d, (n, *shape)).mean(axis=0)


def _input_label_grads(params: ModelParams, cache, sens: list):
    """Differentiate an attack loss through the gradient computation.

    `sens` holds dE/d(gradient tensor) in wire order and `cache` is the
    tinynn.backprop cache of the dummy batch x with soft targets y (the
    adaptive view changes only the gradients); returns (dE/dx, dE/dy).
    """
    acts, preacts, probs, deltas = cache
    n = acts[0].shape[-2]
    n_layers = len(params.layers)

    # sensitivities of the per-example error signals, built from the first
    # layer upward because delta_l feeds delta_{l-1} in the backward pass
    d_delta = []
    for l in range(n_layers):
        direct = (acts[l] @ sens[2 * l].swapaxes(-1, -2) + sens[2 * l + 1][..., None, :]) / n
        if l > 0:
            prev = d_delta[l - 1]
            if params.layers[l - 1].kind == KIND_RELU:
                prev = prev * (preacts[l - 1] > 0.0)
            direct = direct + prev @ params.layers[l].weight.T
        d_delta.append(direct)

    # softmax head: delta_L = probs - y
    d_probs = d_delta[-1]
    dy = -d_delta[-1]
    row = np.sum(probs * d_probs, axis=-1, keepdims=True)
    d_z = probs * (d_probs - row)

    # walk the forward chain back down to the input
    for l in range(n_layers - 1, -1, -1):
        d_act = d_z @ params.layers[l].weight + (deltas[l] @ sens[2 * l]) / n
        if l == 0:
            return d_act, dy
        if params.layers[l - 1].kind == KIND_RELU:
            d_z = d_act * (preacts[l - 1] > 0.0)
        else:
            d_z = d_act


def _tv_value_grad(x: np.ndarray, side: int):
    """Anisotropic total variation of each (..., n, D) image batch, one value
    per leading index, and its subgradient."""
    lead = x.shape[:-2]
    imgs = x.reshape(*x.shape[:-1], side, side)
    dh = imgs[..., :, 1:] - imgs[..., :, :-1]
    dv = imgs[..., 1:, :] - imgs[..., :-1, :]
    value = (np.sum(np.abs(dh).reshape(*lead, -1), axis=-1)
             + np.sum(np.abs(dv).reshape(*lead, -1), axis=-1))
    grad = np.zeros_like(imgs)
    sh = np.sign(dh)
    sv = np.sign(dv)
    grad[..., :, 1:] += sh
    grad[..., :, :-1] -= sh
    grad[..., 1:, :] += sv
    grad[..., :-1, :] -= sv
    return value, grad.reshape(x.shape)


def _adam(p, g, m, v, t: int, lr: float):
    """One Adam step on p; returns the new (p, m, v)."""
    m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
    v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
    return p - lr * (m / (1 - ADAM_BETA1**t)) / (np.sqrt(v / (1 - ADAM_BETA2**t)) + ADAM_EPS), m, v


def run_attack(
    params: ModelParams,
    upload: list,
    batch: int,
    cfg: AttackConfig,
    labels=None,
    restarts: int = 1,
) -> AttackResult:
    """Reconstruct the `batch` inputs behind one client's upload, the packet
    list that the server's own defense.packets_to_gradset decodes for
    `params`. `labels` must be given in 'known' mode (an int, or one int
    per slot). Inputs are clamped to [0, 1] after every step. An iteration
    that overflows raises NumericalFailure.

    Restart j, seeded with cfg.seed + 1000 * j, runs as slice j of a leading
    axis of every array and computes exactly what it would alone; the result
    is the best iterate of the first restart with the lowest final distance.
    """
    errors = cfg.validate()
    for name, n in (("batch", batch), ("restarts", restarts)):
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            errors.append(f"{name} must be an integer >= 1, got {n!r}")
    if errors:
        raise InvalidConfig("; ".join(errors))
    observed = defense.packets_to_gradset(upload, params)
    dim, num_classes = params.input_dim, params.num_classes
    warnings: list[str] = []
    label_mode = cfg.label_mode

    label_vec = None
    if label_mode == "known":
        if labels is None:
            raise InvalidConfig("label_mode 'known' requires labels")
        label_vec = np.atleast_1d(np.asarray(labels, dtype=np.int64))
        if label_vec.shape != (batch,) or np.any((label_vec < 0) | (label_vec >= num_classes)):
            raise InvalidConfig(f"need one label in [0, {num_classes}) per slot, got {labels!r}")
    elif label_mode == "inferred":
        if batch != 1:
            raise InvalidConfig("label inference works on single-example gradients")
        try:
            label_vec = np.array([tinynn.infer_label_from_grads(observed)])
        except UndeterminedLabel as exc:
            warnings.append(f"label inference failed ({exc}); optimizing labels instead")
            label_mode = "optimized"

    seeds = [cfg.seed + 1000 * j for j in range(restarts)]
    x = np.stack([np.random.default_rng(s).uniform(0.0, 1.0, size=(batch, dim)) for s in seeds])
    label_logits = np.zeros((restarts, batch, num_classes))
    optimize_labels = label_mode == "optimized"
    if not optimize_labels:
        y = np.eye(num_classes)[label_vec]
    masks = [t != 0.0 for t in observed]
    rngs = [np.random.default_rng(s + 1) for s in seeds]
    units = _unit_vectors(observed)
    m_x = v_x = m_l = v_l = 0.0

    side = int(round(np.sqrt(dim)))
    use_tv = cfg.tv_weight > 0.0 and side * side == dim

    trace = np.empty((restarts, cfg.iterations))
    best_loss = np.full(restarts, np.inf)
    best_it = np.zeros(restarts, dtype=np.int64)
    best_x, best_logits = x.copy(), label_logits.copy()

    with numerical_failure("an attack iteration"):
        for it in range(cfg.iterations):
            if optimize_labels:
                y = tinynn._softmax(label_logits)

            dummy, cache = tinynn.backprop(params, x, y)
            view, pullback = _adaptive_view(cfg, masks, rngs, dummy, cache)
            loss, sens = _distance_with_sens(observed, view, cfg.distance, units)
            if use_tv:
                tv_val, tv_grad = _tv_value_grad(x, side)
                loss = loss + cfg.tv_weight * tv_val

            trace[:, it] = loss
            better = loss < best_loss
            best_loss[better], best_it[better] = loss[better], it
            best_x[better], best_logits[better] = x[better], label_logits[better]

            gx, gy = _input_label_grads(params, cache, pullback(sens))
            if use_tv:
                gx = gx + cfg.tv_weight * tv_grad

            x, m_x, v_x = _adam(x, gx, m_x, v_x, it + 1, cfg.lr)
            np.clip(x, 0.0, 1.0, out=x)
            if optimize_labels:
                gl = y * (gy - np.sum(y * gy, axis=-1, keepdims=True))
                label_logits, m_l, v_l = _adam(label_logits, gl, m_l, v_l, it + 1, cfg.lr)

    win = int(np.argmin(best_loss))  # first of the lowest
    return AttackResult(
        label=int(np.argmax(best_logits[win, 0]) if optimize_labels else label_vec[0]),
        loss_trace=trace[win].copy(),
        final_distance=float(best_loss[win]),
        best_iteration=int(best_it[win]),
        reconstructed_batch=best_x[win].copy(),
        restart=win,
        warnings=warnings,
    )


def write_pgm(image: np.ndarray, side: int, path) -> None:
    """Plain-text P2 dump of one [0, 1] image for eyeballing."""
    img = np.asarray(image, dtype=np.float64).reshape(side, side)
    levels = np.clip(np.rint(img * 255.0), 0, 255).astype(int)
    lines = ["P2", f"{side} {side}", "255"]
    lines.extend(" ".join(str(v) for v in row) for row in levels)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_image_csv(truth: np.ndarray, recon: np.ndarray, side: int, path) -> None:
    """Ground-truth and reconstructed pixel grids, stacked, as CSV."""
    with open(path, "w") as fh:
        fh.write("# truth rows, then reconstruction rows\n")
        for block in (truth, recon):
            for row in np.asarray(block).reshape(side, side):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
