"""Independent reference computations used across the test suite.

Each oracle deliberately takes a different route than the library code it
checks: eigenvalues of the Gram matrix by deflated power iteration (instead
of the LAPACK SVD that linalg.svd calls), rank statistics computed from
first principles, a forward pass and cross-entropy of its own to
differentiate numerically (instead of tinynn's model pass), the spectrum
formulas of the defense one spectrum at a time (normalized by the largest
singular value, where defense.rank_rule scales stacks by powers of two), and
a plain sample-count-weighted federated averaging loop, and the class stripe
templates through np.meshgrid. one_hot_grads is how tests take a model's
gradients on labelled examples; upload wraps a gradient set as the packets an
undefended client sends, the one form attack.run_attack takes; broken_upload
forges the bad uploads that the packet decoder must refuse, wire_blob
writes a packet's bytes by hand to the wire layout HEADER_BYTES pins,
kind_defense names a defense that sends a packet's kind, and
checkpoint_blob writes a checkpoint's bytes by hand.
grad_distance, parameter_count, payload_bytes and wire_bytes are the test
suite's scalar views of the attack distance and of a packet's size;
reference_adam is the attack's Adam step written out of place, and
reference_pruned the pruning defenses' rule by a Python sort of
(magnitude, index) keys. span_read and bias_division_read are attackers
that take no optimizer: a least-squares read of a batch slot from a
packet's kept factors, and one division of a layer-0 weight row by its
bias entry. residual_cosine scores a reconstruction's leakage beyond a
prior with math.fsum sums.
"""

import math
import struct
from dataclasses import replace

import numpy as np

from svdlab import attack, data, defense, linalg, tinynn
from svdlab.errors import InvalidConfig, InvalidInput


def gram_eigenvalues(w: np.ndarray) -> np.ndarray:
    """All eigenvalues of W^T W (the squared singular values of W), by
    repeated deflated power iteration.

    Convergence is accelerated by repeatedly squaring the (normalized)
    matrix, which drives any spectral gap to machine level before a single
    power step extracts the dominant eigenvector; the Rayleigh quotient on
    the *undeflated-so-far* matrix then gives the eigenvalue.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.shape[0] < w.shape[1]:
        w = w.T
    work = w.T @ w
    q = work.shape[0]
    values = []
    for idx in range(q):
        scale = float(np.max(np.abs(work)))
        if scale <= 0.0 or not np.isfinite(scale):
            values.extend([0.0] * (q - idx))
            break
        b = work / scale
        for _ in range(60):
            b = b @ b
            m = float(np.max(np.abs(b)))
            if m == 0.0 or not np.isfinite(m):
                break
            b = b / m
        v = b @ (np.ones(q) / np.sqrt(q))
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            # start vector happened to be orthogonal to the eigenvector
            v = b @ np.arange(1.0, q + 1.0)
            norm = float(np.linalg.norm(v))
        if norm == 0.0:
            values.extend([0.0] * (q - idx))
            break
        v = v / norm
        for _ in range(2):  # polish with plain power steps
            nv = work @ v
            nn = float(np.linalg.norm(nv))
            if nn > 0.0:
                v = nv / nn
        lam = float(v @ (work @ v))
        values.append(max(lam, 0.0))
        work = work - lam * np.outer(v, v)
    return np.array(sorted(values, reverse=True))


def gram_singular_values(w: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(gram_eigenvalues(w), 0.0))


def spearman(xs, ys) -> float:
    """Rank correlation with average ranks on ties. It is undefined when
    either input is constant, which raises ValueError."""

    def ranks(v):
        v = np.asarray(v, dtype=np.float64)
        order = np.argsort(v)
        r = np.empty(len(v))
        r[order] = np.arange(1, len(v) + 1)
        for val in np.unique(v):
            mask = v == val
            if mask.sum() > 1:
                r[mask] = r[mask].mean()
        return r

    for name, v in (("xs", xs), ("ys", ys)):
        if len(np.unique(v)) < 2:
            raise ValueError(f"spearman is undefined on constant input: {name} = {v!r}")
    rx = ranks(xs)
    ry = ranks(ys)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx @ ry) / np.sqrt((rx @ rx) * (ry @ ry)))


def reference_loss(model, x, labels) -> float:
    """Mean softmax cross-entropy of the model on the rows of x (n, D), from a
    forward pass of its own: examples as columns, ReLU by np.where after every
    layer but the last, and the log-partition by np.logaddexp."""
    h = np.asarray(x, dtype=np.float64).T
    for i, layer in enumerate(model.layers):
        h = layer.weight @ h + layer.bias[:, None]
        if i < len(model.layers) - 1:
            h = np.where(h > 0.0, h, 0.0)
    picked = h[labels, np.arange(h.shape[1])]
    return float(np.mean(np.logaddexp.reduce(h, axis=0) - picked))


def numeric_gradients(model, x, labels, h=1e-5) -> list:
    """Central finite differences of reference_loss over every parameter of
    the model, in wire order."""
    grads = []
    for arr in model.tensors():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            lp = reference_loss(model, x, labels)
            arr[idx] = orig - h
            lm = reference_loss(model, x, labels)
            arr[idx] = orig
            g[idx] = (lp - lm) / (2.0 * h)
        grads.append(g)
    return grads


def one_hot_grads(model, x, labels) -> list:
    """The model's mean gradients on the rows of x with integer labels: one
    tinynn.backprop pass with one-hot targets, as a client or victim
    computes them."""
    return tinynn.backprop(model, x, np.eye(model.num_classes)[labels])[0]


def reference_adam(p, g, m, v, t: int, lr: float):
    """One Adam step written out of place, as one expression per quantity:
    returns new (p, m, v) and leaves its arguments alone."""
    m = attack.ADAM_BETA1 * m + (1 - attack.ADAM_BETA1) * g
    v = attack.ADAM_BETA2 * v + (1 - attack.ADAM_BETA2) * g * g
    p = p - lr * (m / (1 - attack.ADAM_BETA1**t)) / (
        np.sqrt(v / (1 - attack.ADAM_BETA2**t)) + attack.ADAM_EPS)
    return p, m, v


def reference_pruned(x, small: float, large: float) -> np.ndarray:
    """x with the entries ranked by (-|x|, flat index) zeroed at the first
    floor(large n) and the last floor(small n) ranks."""
    flat = x.ravel().tolist()
    n = len(flat)
    rank = {i: r for r, i in enumerate(sorted(range(n), key=lambda i: (-abs(flat[i]), i)))}
    lo, hi = math.floor(large * n), n - math.floor(small * n)
    return np.array([v if lo <= rank[i] < hi else 0.0 for i, v in enumerate(flat)]).reshape(x.shape)


def max_relative_grad_error(analytic: list, numeric: list, floor=1e-6) -> float:
    worst = 0.0
    for at, nt in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(at), np.abs(nt)), floor)
        worst = max(worst, float(np.max(np.abs(at - nt) / denom)))
    return worst


def fedavg_reference(model, ds, shards, selections, lr, batch_size, epochs, seed):
    """Plain sample-count-weighted federated averaging, written straight from
    the textbook recipe: train each selected client locally, average the raw
    updates by N_m, subtract. Batch order matches the library's seeding so
    the comparison isolates the aggregation path."""
    from svdlab import flsim

    for rnd, selected in enumerate(selections):
        updates = []
        counts = []
        for cid in selected:
            local = model
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, flsim._TAG_CLIENT_BATCHES, rnd, cid])
            )
            shard = shards[cid]
            for _ in range(epochs):
                order = rng.permutation(len(shard))
                for start in range(0, len(shard), batch_size):
                    batch = [shard[i] for i in order[start : start + batch_size]]
                    grads = one_hot_grads(local, ds.x[batch], ds.y[batch])
                    local = tinynn.sgd_step(local, grads, lr)
            updates.append(
                [
                    (g.weight - l.weight, g.bias - l.bias)
                    for g, l in zip(model.layers, local.layers)
                ]
            )
            counts.append(len(shard))
        weights = np.array(counts, dtype=np.float64)
        weights /= weights.sum()
        new_layers = []
        for li, layer in enumerate(model.layers):
            dw = sum(w * upd[li][0] for w, upd in zip(weights, updates))
            db = sum(w * upd[li][1] for w, upd in zip(weights, updates))
            new_layers.append(
                tinynn.LayerParams(layer.weight - dw, layer.bias - db)
            )
        model = tinynn.ModelParams(new_layers)
    return model


def meshgrid_class_template(cls: int, side: int) -> np.ndarray:
    """data.class_template's stripes, with the pixel coordinates laid out by
    np.meshgrid."""
    angle, cycles = data._TEMPLATE_PARAMS[cls]
    coords = (np.arange(side) + 0.5) / side
    xx, yy = np.meshgrid(coords, coords)
    wave = np.sin(2.0 * np.pi * cycles * (xx * np.cos(angle) + yy * np.sin(angle))
                  + data._STRIPE_PHASE)
    return np.where(wave >= 0.0, data._LEVEL_HI, data._LEVEL_LO).ravel()


def upload(grads: list) -> list:
    """The method-none packets of a wire-order gradient set, which
    defense.packets_to_gradset decodes to the same bits: how tests hand
    gradients to attack.run_attack."""
    return defense.defend_update(grads, defense.DefenseConfig(method="none"), seed=0)[0]


HEADER_BYTES = {"svd": 4, "raw": 0}  # by kind: svd is k u32; a raw packet has no header


def wire_blob(payload: bytes, k: int | None = None) -> bytes:
    """A packet written by hand: an svd packet, its header k u32 and then
    the bytes `payload`, or a raw packet (k None), the payload alone. The
    run's defense fixes the kind, so no byte states it. The payload of
    either kind is one sparse block: np.packbits of the mask of stored
    entries (bits not all zero), then those entries as f64; an svd block
    runs over u_star (p*k), the channel weights (p), sigma_star (k),
    vt_star (k*q) and the entropy (1)."""
    return (b"" if k is None else struct.pack("<I", k)) + payload


def kind_defense(packet) -> defense.DefenseConfig:
    """A defense whose run sends the packet's kind for its tensor: svdefense
    for factors, none for raw values."""
    return defense.DefenseConfig(method="none" if packet.values is not None else "svdefense")


def checkpoint_blob(dims, tensors=None) -> bytes:
    """A checkpoint of layer widths `dims` (input first) written by hand: the
    v2 magic, the width count and the widths as u32, then `tensors` in wire
    order as row-major f64, all zero when None."""
    if tensors is None:
        tensors = [np.zeros(shape) for i, o in zip(dims, dims[1:]) for shape in ((o, i), o)]
    return (b"SVDLAB-MODEL-v2\n" + struct.pack(f"<{len(dims) + 1}I", len(dims), *dims)
            + b"".join(np.asarray(t, dtype="<f8").tobytes() for t in tensors))


BROKEN_UPLOADS = ("missing", "duplicated", "swapped", "reshaped")


def transposed(packet):
    """A self-consistent packet of the transposed tensor: raw values
    reshaped to the reversed shape, or the factors swapped and transposed
    with channel weights for the new row count."""
    if packet.values is not None:
        return replace(packet, values=packet.values.reshape(packet.values.shape[::-1]))
    return replace(packet, channel_weights=np.ones(packet.vt_star.shape[1]),
                   u_star=packet.vt_star.T.copy(), vt_star=packet.u_star.T.copy())


def broken_upload(packets: list, how: str) -> list:
    """A copy of a well-formed upload of at least two layers, broken one way:
    the last packet dropped or sent twice, the first two sent in swapped
    order, or the first weight sent transposed."""
    p = list(packets)
    if how == "missing":
        return p[:-1]
    if how == "duplicated":
        return p + p[-1:]
    if how == "swapped":
        return [p[1], p[0], *p[2:]]
    assert how == "reshaped"
    return [transposed(p[0]), *p[1:]]


def grad_distance(observed: list, dummy: list, metric: str) -> float:
    """The attack's distance between two unstacked gradient sets, as a float.
    The distance may write over the dummy it is given, so it gets copies."""
    if metric not in attack.DISTANCES:
        raise InvalidConfig(f"unknown distance metric {metric!r}")
    if len(observed) != len(dummy):
        raise InvalidInput("gradient sets have different tensor counts")
    dummy = [t.copy() for t in dummy]
    return float(attack._distance_with_sens(observed, dummy, metric,
                                            attack._unit_vectors(observed))[0])


def _stored(a) -> int:
    """How many entries of `a` have bits that are not all zero: -0.0 counts,
    +0.0 does not."""
    return int(np.count_nonzero(np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)))


def _floats(packet) -> list:
    """The packet's f64 values in wire order: a raw packet's values, or an
    svd packet's u_star, channel weights, kept values, vt_star and entropy."""
    if packet.values is not None:
        return [packet.values]
    return [packet.u_star, packet.channel_weights, packet.sigma_star, packet.vt_star,
            np.array([packet.entropy])]


def parameter_count(packet) -> int:
    """Number of float64 values the packet payload carries: the stored
    entries of its floats (-0.0 counts, +0.0 does not)."""
    return sum(_stored(a) for a in _floats(packet))


def payload_bytes(packet) -> int:
    """Size of the packet on the wire after its header: one sparse block
    over all its floats, one bit per entry (rounded up to whole bytes) and
    8 bytes per stored entry."""
    return -(-sum(np.size(a) for a in _floats(packet)) // 8) + 8 * parameter_count(packet)


def wire_bytes(packet) -> int:
    """Size of the packet on the wire: its kind's header and payload_bytes."""
    return HEADER_BYTES["raw" if packet.values is not None else "svd"] + payload_bytes(packet)


def residual_cosine(truth, recon, prior) -> float:
    """cos(recon - prior, truth - prior) from plain-Python fsum sums, 0 where
    either residual is zero."""
    guess = [float(r) - float(p) for r, p in zip(recon, prior)]
    target = [float(t) - float(p) for t, p in zip(truth, prior)]
    ng, nt = (math.sqrt(math.fsum(v * v for v in vec)) for vec in (guess, target))
    if ng == 0.0 or nt == 0.0:
        return 0.0
    return math.fsum(g * t for g, t in zip(guess, target)) / (ng * nt)


def span_read(vt, priors, labels) -> np.ndarray:
    """The closed-form read of slot 0 from kept right singular vectors (the
    rows of `vt`), given the batch's `labels` and one prior image per class
    (the rows of `priors`): each row v is fit by least squares as
    sum_i a_i priors[labels[i]] + c, and the estimate is sum_v a_0(v) times
    v's residual, which does not depend on the sign of v."""
    vt = np.asarray(vt, dtype=np.float64)
    design = np.column_stack([priors[labels].T, np.ones(vt.shape[1])])
    coef = np.linalg.lstsq(design, vt.T, rcond=None)[0]
    return (vt.T - design @ coef) @ coef[0]


def bias_division_read(weight, bias, prior=None) -> np.ndarray:
    """The one-division read of an input from layer 0's weight and bias
    gradients: one sample's weight gradient row j is delta_j x and its bias
    entry delta_j, so W_j / b_j is x. j is the row with the largest |b_j|,
    or, given the target's `prior` image, the live row (b_j != 0) whose
    quotient is nearest it: in a larger batch, a row that only the target
    activates still divides exactly."""
    weight, bias = np.asarray(weight), np.asarray(bias)
    if prior is None:
        j = int(np.argmax(np.abs(bias)))
        return weight[j] / bias[j]
    live = bias != 0.0
    quotients = weight[live] / bias[live, None]
    return quotients[np.argmin(np.linalg.norm(quotients - prior, axis=1))]


def _energy_fractions(sigma) -> np.ndarray:
    s = np.asarray(sigma, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise InvalidInput("sigma must be a non-empty spectrum")
    if not s.any():
        raise InvalidInput("all singular values are zero")
    energy = np.square(s / np.abs(s).max())
    return energy / energy.sum()


def singular_entropy(sigma) -> float:
    """Shannon entropy (nats, 0 ln 0 = 0) of the normalized squared
    singular values; it lies in [0, ln r]."""
    return -sum(x * math.log(x) for x in _energy_fractions(sigma).tolist() if x > 0.0)


def energy_rank(sigma, threshold) -> tuple:
    """Smallest k whose cumulative squared-sigma fraction strictly exceeds
    `threshold`, at most len(sigma), so that a threshold of 1 keeps full
    rank; returns (k, the fraction of squared-sigma mass the top k keep)."""
    threshold = float(threshold)
    if not 0.0 <= threshold <= 1.0:
        raise InvalidInput(f"threshold must be in [0, 1], got {threshold}")
    fractions = np.cumsum(_energy_fractions(sigma))
    k = min(int(np.sum(fractions <= threshold)) + 1, len(fractions))
    return k, float(fractions[k - 1])


def truncate_by_energy(f, threshold: float):
    """The top-k triples of the compact SVD `f`, k from energy_rank."""
    k = energy_rank(f.sigma, threshold)[0]
    return linalg.SvdFactors(u=f.u[:, :k].copy(), sigma=f.sigma[:k].copy(), vt=f.vt[:k].copy())
