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
from .errors import InvalidConfig, InvalidInput, UndeterminedLabel
from .tinynn import GradSet, KIND_RELU, LayerGrads, ModelParams

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
        return schema.check(self)


@dataclass
class AttackResult:
    reconstructed: np.ndarray  # best iterate, first slot, clamped to [0, 1]
    label: int
    loss_trace: np.ndarray  # distance value per iteration
    final_distance: float  # min over the trace
    best_iteration: int
    reconstructed_batch: np.ndarray  # all slots at the best iterate
    restart: int  # index of the winning restart
    warnings: list[str] = field(default_factory=list)


def grad_distance(observed: GradSet, dummy: GradSet, metric: str) -> float:
    """l2: total squared entry difference. neg_cosine_layerwise: per layer,
    1 - cosine of the flattened weight+bias vectors; layers where either side
    has zero norm contribute 0."""
    if metric not in DISTANCES:
        raise InvalidConfig(f"unknown distance metric {metric!r}")
    if len(observed.layers) != len(dummy.layers):
        raise InvalidInput("gradient sets have different layer counts")
    return float(_distance_with_sens(observed, dummy, metric)[0])


def _unit_vectors(observed: GradSet) -> list:
    """Each observed layer's weight+bias vector over its norm (None if zero),
    scaled exactly first so that the norm cannot underflow or overflow."""
    vs = [linalg._unit_scale(np.concatenate([o.weight_grad.ravel(), o.bias_grad]))[0]
          for o in observed.layers]
    return [v / math.sqrt(v.dot(v)) if v.any() else None for v in vs]


def _distance_with_sens(observed: GradSet, dummy: GradSet, metric: str, units=None):
    """Distance plus its gradient with respect to every dummy tensor. Dummy
    tensors may carry leading (restart) axes; the distance then has those
    axes, each slice computed exactly as it would be alone. `units` are the
    _unit_vectors of `observed`, computed here when not given."""
    lead = dummy.layers[0].bias_grad.shape[:-1]
    total = np.zeros(lead)
    sens = []
    units = units or _unit_vectors(observed)
    for o, d, ou in zip(observed.layers, dummy.layers, units):
        if metric == "l2":
            dw = d.weight_grad - o.weight_grad
            db = d.bias_grad - o.bias_grad
            total += (dw * dw).reshape(*lead, -1).sum(axis=-1) + (db * db).sum(axis=-1)
            sens.append(LayerGrads(2.0 * dw, 2.0 * db))
            continue
        # dummy vectors d are scaled exactly by 2**-e; 1 - cos(d, o) has the
        # gradient (cos * d / |d| - o / |o|) / |d|
        dvs, e = linalg._unit_scale(
            np.concatenate([d.weight_grad.reshape(*lead, -1), d.bias_grad], axis=-1), -1)
        gvecs = np.zeros_like(dvs)
        for j in np.ndindex(lead):
            dv = dvs[j]  # Python floats: vectorized norms and dots round otherwise
            nd = math.sqrt(dv.dot(dv))
            if ou is None or nd == 0.0:
                continue
            c = float(dv @ ou) / nd
            total[j] += 1.0 - c
            gvecs[j] = ((c / nd) * dv - ou) * math.ldexp(1.0 / nd, -int(e[j][0]))
        wsize = o.weight_grad.size
        sens.append(LayerGrads(gvecs[..., :wsize].reshape(d.weight_grad.shape), gvecs[..., wsize:]))
    return total, GradSet(sens)


def _replay_projectors(cache, cfg: defense.DefenseConfig) -> list:
    """(layer, w, u, nonzero) for each stacked weight gradient delta^T act / n
    of at least 2x2 in a _forward cache: the channel weights w (..., p, 1),
    scaled exactly to a maximum in [0.5, 1), and columns u (..., p, m) holding
    the left singular vectors of w g that the defense keeps. A thin QR
    w delta^T = Q R and an SVD of the core R act / n = U S V^T give them as
    Q U, for all layers at once: zero-padding to one shape changes no singular
    value or vector. The rank k is the defender's, clamped to the count of
    S > RANK_TOL * max S, linalg.svd's own cut; a zero spectrum gets k = 0."""
    acts, _, _, deltas = cache
    ids = [l for l, (a, d) in enumerate(zip(acts, deltas)) if min(a.shape[-1], d.shape[-1]) >= 2]
    if not ids:
        return []
    dims = [(deltas[l].shape[-1], acts[l].shape[-1]) for l in ids]
    (p, q), lead = np.max(dims, axis=0), (len(ids), *acts[0].shape[:-1])
    delta, act = np.zeros((*lead, p)), np.zeros((*lead, q))
    for i, (l, (p_l, q_l)) in enumerate(zip(ids, dims)):
        delta[i, ..., :p_l], act[i, ..., :q_l] = deltas[l], acts[l]
    dt, n = delta.swapaxes(-1, -2), act.shape[-2]
    g = dt @ act / n
    w = linalg._unit_scale(defense.channel_weights(g), -1)[0][..., None]
    qf, r = np.linalg.qr(w * dt)
    u_c, sig, _ = np.linalg.svd(r @ act / n, full_matrices=False)
    sig_e = sig
    if cfg.entropy_source == "unweighted":
        sig_e = np.linalg.svd(np.linalg.qr(dt)[1] @ act / n, compute_uv=False)
    k = np.zeros(sig.shape[:-1], dtype=np.int64)
    live = (sig[..., 0] > 0.0) & (sig_e[..., 0] > 0.0)
    if live.any():
        thresholds = [defense.adaptive_threshold(h, cfg.beta)
                      for h in linalg.singular_entropy(sig_e[live])]
        k[live] = linalg.energy_rank(sig[live], thresholds)[0]
    k = np.minimum(k, np.sum(sig > linalg.RANK_TOL * sig[..., :1], axis=-1))
    u = (qf @ u_c) * (np.arange(sig.shape[-1]) < k[..., None])[..., None, :]
    return [(l, w[i, ..., :p_l, :], u[i, ..., :p_l, :], g[i].any(axis=(-2, -1))[..., None, None])
            for i, (l, (p_l, _)) in enumerate(zip(ids, dims))]


class _AdaptiveTransform:
    """Forward transform of the dummy gradients plus the matching pullback of
    distance sensitivities, per attack iteration. Gradient tensors carry a
    leading restart axis; restart j draws its EOT noise from rngs[j]."""

    def __init__(self, cfg: AttackConfig, observed: GradSet, rngs):
        self.cfg = cfg
        self.rngs = rngs
        if cfg.adaptive == "prune_mask":
            self.masks = [
                (t.weight_grad != 0.0, t.bias_grad != 0.0) for t in observed.layers
            ]
        if cfg.adaptive == "eot":
            d = cfg.defense
            if d is None or d.method not in ("dp_gauss", "dp_lap") or d.noise_scale <= 0.0:
                raise InvalidConfig(
                    "eot needs the defender's noise method and scale in attack.defense"
                )
        if cfg.adaptive == "defense_replay":
            if cfg.defense is None or cfg.defense.method != "svdefense":
                raise InvalidConfig(
                    "defense_replay needs the low-rank defense config in attack.defense"
                )

    def apply(self, dummy: GradSet, cache=None) -> GradSet:
        mode = self.cfg.adaptive
        if mode == "none":
            return dummy
        if mode == "prune_mask":
            out = dummy.copy()
            for layer, (wm, bm) in zip(out.layers, self.masks):
                layer.weight_grad *= wm
                layer.bias_grad *= bm
            return out
        if mode == "eot":
            d = self.cfg.defense
            n = self.cfg.eot_samples
            out = dummy.copy()
            for layer in out.layers:
                for t in (layer.weight_grad, layer.bias_grad):
                    for tj, rng in zip(t, self.rngs):
                        tj += _mean_noise(rng, d, n, tj.shape)
            return out
        # defense_replay: refresh every restart's projector u u^T from the
        # factors in the _forward cache and push the weighted dummy matrices
        # through it (bias tensors travel raw; all-zero matrices stay as is)
        out = dummy.copy()
        self._projectors = _replay_projectors(cache, self.cfg.defense)
        for l, w, u, _ in self._projectors:
            g = out.layers[l].weight_grad
            g[...] = (u @ (u.swapaxes(-1, -2) @ (w * g))) / w
        return out

    def pullback(self, sens: GradSet) -> GradSet:
        mode = self.cfg.adaptive
        if mode in ("none", "eot"):
            return sens
        if mode == "prune_mask":  # the mask is its own pullback
            return self.apply(sens)
        out = sens.copy()
        for l, w, u, touched in self._projectors:
            s = out.layers[l].weight_grad
            s[...] = np.where(touched, w * (u @ (u.swapaxes(-1, -2) @ (s / w))), s)
        return out


def _mean_noise(rng: np.random.Generator, d: defense.DefenseConfig, n: int, shape) -> np.ndarray:
    draw = rng.normal if d.method == "dp_gauss" else rng.laplace
    return draw(0.0, d.noise_scale, size=(n, *shape)).mean(axis=0)


def _forward(params: ModelParams, x, y):
    """Dummy gradients of the (..., n, D) batch x with soft targets y, plus the
    (acts, preacts, probs, deltas) cache that _input_label_grads needs."""
    logits, acts, preacts = tinynn.forward_batch(params, x)
    probs = tinynn._softmax(logits)
    deltas = tinynn.deltas_from_forward(params, preacts, probs, y)
    return tinynn.grads_from_deltas(acts, deltas, x.shape[-2]), (acts, preacts, probs, deltas)


def _input_label_grads(params: ModelParams, cache, sens: GradSet):
    """Differentiate an attack loss through the gradient computation.

    `sens` holds dE/d(gradient tensor) for every layer and `cache` is the
    _forward cache of the dummy batch x with soft targets y (the adaptive
    transform changes only the gradients); returns (dE/dx, dE/dy).
    """
    acts, preacts, probs, deltas = cache
    n = acts[0].shape[-2]
    n_layers = len(params.layers)

    # sensitivities of the per-example error signals, built from the first
    # layer upward because delta_l feeds delta_{l-1} in the backward pass
    d_delta = []
    for l in range(n_layers):
        sw = sens.layers[l].weight_grad
        direct = (acts[l] @ sw.swapaxes(-1, -2) + sens.layers[l].bias_grad[..., None, :]) / n
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
        d_act = d_z @ params.layers[l].weight + (deltas[l] @ sens.layers[l].weight_grad) / n
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


def _as_gradset(observed, params: ModelParams) -> GradSet:
    if isinstance(observed, GradSet):
        return observed
    gs = defense.packets_to_gradset(list(observed))
    if len(gs.layers) != len(params.layers):
        raise InvalidInput("observed packets do not match the model's layer count")
    return gs


def _adam(p, g, m, v, t: int, lr: float):
    """One Adam step on p; returns the new (p, m, v)."""
    m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
    v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
    return p - lr * (m / (1 - ADAM_BETA1**t)) / (np.sqrt(v / (1 - ADAM_BETA2**t)) + ADAM_EPS), m, v


def run_attack(
    params: ModelParams,
    observed,
    target_shape,
    cfg: AttackConfig,
    labels=None,
    init: np.ndarray | None = None,
    restarts: int = 1,
) -> AttackResult:
    """Reconstruct the input(s) behind `observed` gradients.

    `observed` may be a GradSet or a list of defense packets (which are
    reassembled the same way the server does). `target_shape` is (D,) for a
    single input or (B, D) for a joint batch reconstruction; `labels` must be
    given in 'known' mode (an int, or one int per slot). Inputs are clamped
    to [0, 1] after every step.

    Restart j, seeded with cfg.seed + 1000 * j, runs as slice j of a leading
    axis of every array and computes exactly what it would alone; the result
    is the best iterate of the first restart with the lowest final distance.
    """
    errors = cfg.validate()
    if isinstance(restarts, bool) or not isinstance(restarts, int) or restarts < 1:
        errors.append(f"restarts must be an integer >= 1, got {restarts!r}")
    if errors:
        raise InvalidConfig("; ".join(errors))
    observed = _as_gradset(observed, params)

    shape = tuple(target_shape)
    if len(shape) == 1:
        batch, dim = 1, shape[0]
    elif len(shape) == 2:
        batch, dim = shape
    else:
        raise InvalidInput(f"target_shape must be (D,) or (B, D), got {shape}")
    if dim != params.input_dim:
        raise InvalidInput("target dim does not match the model input dim")

    num_classes = params.num_classes
    warnings: list[str] = []
    label_mode = cfg.label_mode

    label_vec = None
    if label_mode == "known":
        if labels is None:
            raise InvalidConfig("label_mode 'known' requires labels")
        label_vec = np.atleast_1d(np.asarray(labels, dtype=np.int64))
        if label_vec.shape != (batch,):
            raise InvalidConfig(f"need one label per slot, got {label_vec.shape}")
    elif label_mode == "inferred":
        if batch != 1:
            raise InvalidConfig("label inference works on single-example gradients")
        try:
            label_vec = np.array([tinynn.infer_label_from_grads(observed)])
        except UndeterminedLabel as exc:
            warnings.append(f"label inference failed ({exc}); optimizing labels instead")
            label_mode = "optimized"

    seeds = [cfg.seed + 1000 * j for j in range(restarts)]
    if init is None:
        x = np.stack([np.random.default_rng(s).uniform(0.0, 1.0, size=(batch, dim)) for s in seeds])
    else:
        x = np.clip(np.asarray(init, dtype=np.float64).reshape(1, batch, dim), 0.0, 1.0)
        x = np.repeat(x, restarts, axis=0)
    label_logits = np.zeros((restarts, batch, num_classes))
    optimize_labels = label_mode == "optimized"
    if not optimize_labels:
        y = np.eye(num_classes)[label_vec]
    transform = _AdaptiveTransform(cfg, observed, [np.random.default_rng(s + 1) for s in seeds])
    units = _unit_vectors(observed)
    m_x = v_x = m_l = v_l = 0.0

    side = int(round(np.sqrt(dim)))
    use_tv = cfg.tv_weight > 0.0 and side * side == dim

    trace = np.empty((restarts, cfg.iterations))
    best_loss = np.full(restarts, np.inf)
    best_it = np.zeros(restarts, dtype=np.int64)
    best_x, best_logits = x.copy(), label_logits.copy()

    for it in range(cfg.iterations):
        if optimize_labels:
            y = tinynn._softmax(label_logits)

        dummy, cache = _forward(params, x, y)
        loss, sens = _distance_with_sens(observed, transform.apply(dummy, cache), cfg.distance,
                                         units)
        if use_tv:
            tv_val, tv_grad = _tv_value_grad(x, side)
            loss = loss + cfg.tv_weight * tv_val

        trace[:, it] = loss
        better = loss < best_loss
        best_loss[better], best_it[better] = loss[better], it
        best_x[better], best_logits[better] = x[better], label_logits[better]

        gx, gy = _input_label_grads(params, cache, transform.pullback(sens))
        if use_tv:
            gx = gx + cfg.tv_weight * tv_grad

        x, m_x, v_x = _adam(x, gx, m_x, v_x, it + 1, cfg.lr)
        np.clip(x, 0.0, 1.0, out=x)
        if optimize_labels:
            gl = y * (gy - np.sum(y * gy, axis=-1, keepdims=True))
            label_logits, m_l, v_l = _adam(label_logits, gl, m_l, v_l, it + 1, cfg.lr)

    finals = [float(np.min(row)) for row in trace]
    win = min(range(restarts), key=finals.__getitem__)  # first of the lowest
    return AttackResult(
        reconstructed=best_x[win, 0].copy(),
        label=int(np.argmax(best_logits[win, 0]) if optimize_labels else label_vec[0]),
        loss_trace=trace[win].copy(),
        final_distance=finals[win],
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
