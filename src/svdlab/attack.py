"""Gradient inversion engine.

Given a model and one client's (possibly defended) gradients, the engine
optimizes dummy inputs, under the batch's known labels, so the gradients they
would produce match the observed ones. The matching loss is differentiated
through the network's own backward pass analytically (second-order ReLU terms
vanish almost everywhere), so no autodiff framework is involved and runs are
bit-deterministic for a fixed seed.

Adaptive modes mirror what an attacker who knows the defense would do:
re-apply a detected prune mask (with the bound it puts on what was pruned),
average away injected noise, or replay the low-rank defense pipeline on the
dummy gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import defense, linalg, schema, tinynn
from .errors import InvalidConfig, NumericalFailure, numerical_failure
from .tinynn import ModelParams

DISTANCES = ("l2", "neg_cosine_layerwise")
ADAPTIVE_MODES = ("none", "prune_mask", "eot", "defense_replay")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class AttackConfig:
    distance: str = field(default="l2", metadata={"choices": DISTANCES})
    iterations: int = field(default=1000, metadata={"ge": 1})
    lr: float = field(default=0.1, metadata={"gt": 0})
    adaptive: str = field(default="none", metadata={"choices": ADAPTIVE_MODES})
    eot_samples: int = field(default=1, metadata={"ge": 1})


def pairing_errors(mode: str, faced: defense.DefenseConfig) -> list[str]:
    """Why adaptive `mode` cannot face the defense `faced`, whose own fields
    are valid: eot averages away noise the defense must add, and
    defense_replay replays svdefense."""
    if mode == "eot" and (faced.method not in defense.NOISE_METHODS or faced.noise_scale <= 0.0):
        return ["adaptive 'eot' requires fl.defense.method dp_gauss or dp_lap "
                "with noise_scale > 0"]
    if mode == "defense_replay" and faced.method != "svdefense":
        return ["adaptive 'defense_replay' requires fl.defense.method svdefense"]
    return []


@dataclass
class AttackResult:
    loss_trace: np.ndarray  # distance value per iteration
    final_distance: float  # min over the trace
    best_iteration: int
    reconstructed_batch: np.ndarray  # all slots at the best iterate, clamped to [0, 1]
    restart: int  # index of the winning restart


def _layer_vectors(grads: list):
    """Per layer of a gradient set in wire order: (v, e, |v|), v its weight+bias
    vector over any leading axes scaled exactly by 2**-e (linalg._unit_scale).
    np.vecdot gives each slice's norm the bits it has alone (one BLAS dot)."""
    for w, b in zip(grads[::2], grads[1::2]):
        v, e = linalg._unit_scale(np.concatenate([w.reshape(*b.shape[:-1], -1), b], axis=-1), -1)
        yield v, e, np.sqrt(np.vecdot(v, v))


def _unit_vectors(observed: list) -> list:
    """Each observed layer's weight+bias vector over its norm (None if zero)."""
    return [v / n if n else None for v, _, n in _layer_vectors(observed)]


def _distance_with_sens(observed: list, dummy: list, metric: str, units: list):
    """Distance plus its gradient with respect to every dummy tensor, for two
    gradient sets in wire order. l2: total squared entry difference;
    neg_cosine_layerwise: per layer, 1 - cosine of the flattened weight+bias
    vectors, 0 where either has zero norm. Dummy tensors may carry leading
    (restart) axes; the distance then has those axes, each slice computed
    exactly as it would be alone. `units` are the _unit_vectors of
    `observed`. `observed` is only read, but l2 writes its sensitivities
    2 (w - o) over `dummy`: pass arrays you own."""
    lead = dummy[1].shape[:-1]
    total = None if metric == "l2" else np.zeros(lead)
    sens, vectors = [], _layer_vectors(dummy)
    for ow, ob, w, b, ou in zip(observed[::2], observed[1::2], dummy[::2], dummy[1::2], units):
        if metric == "l2":
            w -= ow
            b -= ob
            s = (w * w).reshape(*lead, -1).sum(axis=-1) + (b * b).sum(axis=-1)
            total = s if total is None else total + s  # 0 + s is s: no zeros, no add
            sens += [np.multiply(w, 2.0, out=w), np.multiply(b, 2.0, out=b)]
            continue
        # dummy vectors d are scaled exactly by 2**-e; 1 - cos(d, o) has the
        # gradient (cos * d / |d| - o / |o|) / |d|, and 0 where d or o is zero
        d, e, nd = next(vectors)
        zero = nd == 0.0
        if ou is not None:  # else no arithmetic: 1 / |d| may overflow for nothing
            nd = np.where(zero, 1.0, nd)[..., None]
            c = np.vecdot(d, ou)[..., None] / nd
            np.add(total, 1.0 - c[..., 0], out=total, where=~zero)
            d = (c / nd * d - ou) * np.ldexp(1.0 / nd, -e)
        d[zero | (ou is None)] = 0.0
        sens += [d[..., :ow.size].reshape(w.shape), d[..., ow.size:]]
    return total, sens


def _replay_projectors(cache, beta: float) -> list:
    """(a, b, touched) for each layer, in layer order, of its stacked weight
    gradient g = delta^T act / n in a backprop cache. The defense replays as
    g -> a b^T g, with a = u / w and b = w u (..., p, m): w (..., p, 1) holds
    defense.channel_weights, the weights of the defender's SVD (it sends +0.0
    for a dead channel, where u's row, and so a's, is zero), and the columns
    of u the kept left singular vectors of w g, zero where g's row is. Its
    pullback is s -> b a^T s; touched says whether g is nonzero. g itself is
    never formed: a thin QR act^T = Q R gives g = K Q^T with K = delta^T R^T /
    n, p x min(n, q), and since Q^T has orthonormal rows, K has g's row norms,
    singular values and left singular vectors. So w and g's zero rows come
    from K, u from one SVD of w K, k from defense.rank_rule, for all layers at
    once: zero-padding to one shape changes no singular value or vector."""
    acts, _, _, deltas = cache
    dims = [(d.shape[-1], a.shape[-1]) for a, d in zip(acts, deltas)]
    (p, q), lead = map(max, zip(*dims)), (len(dims), *acts[0].shape[:-1])
    delta, act = np.zeros((*lead, p)), np.zeros((*lead, q))
    for l, (p_l, q_l) in enumerate(dims):
        delta[l, ..., :p_l], act[l, ..., :q_l] = deltas[l], acts[l]
    r = np.linalg.qr(act.swapaxes(-1, -2), mode="r")
    k_mat = delta.swapaxes(-1, -2) @ r.swapaxes(-1, -2) / act.shape[-2]
    w = defense.channel_weights(k_mat)[..., None]
    u, sig, _ = np.linalg.svd(w * k_mat, full_matrices=False)
    k, live = defense.rank_rule(sig, beta)[0], k_mat.any(axis=-1)[..., None]
    u = u * ((np.arange(sig.shape[-1]) < k[..., None])[..., None, :] & live)
    a, b, touched = u / w, w * u, live.any(axis=-2, keepdims=True)
    return [(a[l, ..., :p_l, :], b[l, ..., :p_l, :], touched[l])
            for l, (p_l, _) in enumerate(dims)]


def _adaptive_view(cfg: AttackConfig, faced, masks, rngs, dummy: list, cache):
    """(view, pullback): the dummy gradients as the adaptive attacker compares
    them, and the pullback of distance sensitivities through that view.
    Tensors carry a leading restart axis; restart j draws its EOT noise from
    rngs[j]. Under prune_mask, `masks` holds _known_zeros: off the observed
    nonzeros m the view keeps only what exceeds the bound tau, 0 for the
    true gradient, and the pullback passes m and those excesses; eot and
    none pull back through the identity. The replay builds
    every restart's projector a b^T once from the tinynn.backprop `cache` and
    maps g -> a b^T g and s -> b a^T s (all-zero matrices pass). That
    pullback holds the projector fixed: it is the adjoint of a b^T, not the
    derivative of the defense, so finite differences do not check it."""
    mode = cfg.adaptive
    if mode == "prune_mask":
        view = [np.where(m, t, t - np.clip(t, -tau, tau)) for t, (m, tau) in zip(dummy, masks)]
        live = [m | (np.abs(t) > tau) for t, (m, tau) in zip(dummy, masks)]
        return view, lambda sens: [s * keep for s, keep in zip(sens, live)]
    if mode != "defense_replay":
        if mode == "eot":
            dummy = [np.stack([tj + _mean_noise(rng, faced, cfg.eot_samples, tj.shape)
                               for tj, rng in zip(t, rngs)]) for t in dummy]
        return dummy, lambda sens: sens
    projectors = _replay_projectors(cache, faced.beta)

    def replayed(grads, adjoint: bool):
        ts = list(grads)
        for l, (a, b, touched) in enumerate(projectors):
            g = ts[2 * l]
            ts[2 * l] = (np.where(touched, b @ (a.swapaxes(-1, -2) @ g), g) if adjoint
                         else a @ (b.swapaxes(-1, -2) @ g))
        return ts

    return replayed(dummy, False), lambda sens: replayed(sens, True)


def _known_zeros(observed: list, d: defense.DefenseConfig) -> list:
    """(m, tau) per observed tensor: m its nonzeros, tau a bound on the
    magnitudes the defense zeroed. prune zeroes none above the smallest it
    keeps; other defenses give no bound (inf)."""
    return [(t != 0.0, np.abs(t[t != 0.0]).min(initial=np.inf) if d.method == "prune" else np.inf)
            for t in observed]


def _mean_noise(rng: np.random.Generator, d: defense.DefenseConfig, n: int, shape) -> np.ndarray:
    """The mean of n defense.noise draws of `shape`."""
    return defense.noise(rng, d, (n, *shape)).mean(axis=0)


def _input_grads(params: ModelParams, cache, sens: list):
    """Differentiate an attack loss through the gradient computation.

    `sens` holds dE/d(gradient tensor) in wire order and `cache` is the
    tinynn.backprop cache of the dummy batch x with targets y (the adaptive
    view changes only the gradients); returns dE/dx, a new array; `sens` and
    the cache are only read.
    """
    acts, masks, probs, deltas = cache
    n, weights = acts[0].shape[-2], params.tensors()[::2]

    # sensitivities of the per-example error signals, built from the first
    # layer upward because delta_l feeds delta_{l-1} in the backward pass
    d_delta = []
    for l in range(len(weights)):
        direct = acts[l] @ sens[2 * l].swapaxes(-1, -2)
        direct += sens[2 * l + 1][..., None, :]
        direct /= n
        if l > 0:  # the layer below is hidden: ReLU
            direct += (d_delta[l - 1] * masks[l - 1]) @ weights[l].T
        d_delta.append(direct)

    # softmax head: delta_L = probs - y
    d_probs = d_delta[-1]
    row = np.sum(probs * d_probs, axis=-1, keepdims=True)
    d_z = d_probs - row
    d_z *= probs

    # walk the forward chain back down to the input
    for l in range(len(weights) - 1, -1, -1):
        d_act = deltas[l] @ sens[2 * l]
        d_act /= n
        d_act += d_z @ weights[l]
        if l == 0:
            return d_act
        d_act *= masks[l - 1]
        d_z = d_act


def _adam(p, g, m, v, t: int, lr: float) -> None:
    """One Adam step on p, with p and the moments m and v updated in place."""
    np.add(ADAM_BETA1 * m, (1 - ADAM_BETA1) * g, out=m)
    np.add(ADAM_BETA2 * v, (1 - ADAM_BETA2) * g * g, out=v)
    p -= lr * (m / (1 - ADAM_BETA1**t)) / (np.sqrt(v / (1 - ADAM_BETA2**t)) + ADAM_EPS)


def run_attack(
    params: ModelParams,
    upload: list,
    cfg: AttackConfig,
    faced: defense.DefenseConfig,
    labels,
    seed,
    restarts: int = 1,
) -> AttackResult:
    """Reconstruct the inputs behind one client's upload, the packet list
    that the server's own defense.packets_to_gradset decodes for `params`,
    given the defense `faced` that made it and the batch's `labels`: one
    int in [0, C) per slot, which also fix the batch size.
    Inputs are clamped to [0, 1] after every step. An upload that
    decodes to non-finite values, or an iteration that overflows, raises
    NumericalFailure.

    Restart j draws its start inputs, then its eot noise, from
    default_rng([*seed, j]) for the victim's key `seed`, ints set apart by
    a tag, never by length (SeedSequence reads s as [s, 0]). It runs as
    slice j of a leading axis and computes exactly what it would alone;
    the result is the best iterate of the first lowest restart.
    """
    errors = schema.check(cfg) + (faced.validate() or pairing_errors(cfg.adaptive, faced))
    if isinstance(restarts, bool) or not isinstance(restarts, int) or restarts < 1:
        errors.append(f"restarts must be an integer >= 1, got {restarts!r}")
    if errors:
        raise InvalidConfig("; ".join(errors))
    observed = defense.packets_to_gradset(upload, params)
    if not all(np.isfinite(t).all() for t in observed):
        raise NumericalFailure("the decoded upload holds non-finite values")
    dim, num_classes = params.input_dim, params.num_classes

    label_vec = np.asarray(labels)
    if (label_vec.dtype.kind not in "iu" or label_vec.ndim != 1 or not label_vec.size
            or np.any((label_vec < 0) | (label_vec >= num_classes))):
        raise InvalidConfig(f"need one label in [0, {num_classes}) per slot, got {labels!r}")
    y = np.eye(num_classes)[label_vec]

    # the restart-sized arrays come first: a restart count beyond memory fails here
    x, trace = np.empty((restarts, len(y), dim)), np.empty((restarts, cfg.iterations))
    rngs = [np.random.default_rng([*seed, j]) for j in range(restarts)]
    for j, rng in enumerate(rngs):
        x[j] = rng.uniform(0.0, 1.0, size=(len(y), dim))
    masks = _known_zeros(observed, faced)
    units = _unit_vectors(observed)
    m_x, v_x = np.zeros_like(x), np.zeros_like(x)

    best_loss = np.full(restarts, np.inf)
    best_x = x.copy()

    with numerical_failure("an attack iteration"):
        for it in range(cfg.iterations):
            # the view is this iteration's own arrays: the distance writes over it
            dummy, cache = tinynn.backprop(params, x, y)
            view, pullback = _adaptive_view(cfg, faced, masks, rngs, dummy, cache)
            loss, sens = _distance_with_sens(observed, view, cfg.distance, units)

            trace[:, it] = loss
            better = loss < best_loss
            np.copyto(best_loss, loss, where=better)
            np.copyto(best_x, x, where=better[:, None, None])

            # the cache holds x itself: pull back fully before Adam moves x
            gx = _input_grads(params, cache, pullback(sens))

            _adam(x, gx, m_x, v_x, it + 1, cfg.lr)
            np.maximum(x, 0.0, out=x)  # x is never -0.0, so this is np.clip
            np.minimum(x, 1.0, out=x)

    win = int(np.argmin(best_loss))  # first of the lowest
    return AttackResult(
        loss_trace=trace[win].copy(),
        final_distance=float(best_loss[win]),
        best_iteration=int(np.argmin(trace[win])),
        reconstructed_batch=best_x[win].copy(),
        restart=win,
    )
