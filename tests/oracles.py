"""Independent reference computations used across the test suite.

Each oracle deliberately takes a different route than the library code it
checks: eigenvalues of the Gram matrix by deflated power iteration (instead
of the LAPACK SVD that linalg.svd calls), rank statistics computed from
first principles, and a plain sample-count-weighted federated averaging
loop.
"""

import numpy as np

from svdlab import tinynn
from svdlab.tinynn import GradSet, LayerGrads


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
    """Rank correlation with average ranks on ties."""

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

    rx = ranks(xs)
    ry = ranks(ys)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx @ ry) / np.sqrt((rx @ rx) * (ry @ ry)))


def numeric_gradients(model, batch, h=1e-5) -> GradSet:
    """Central finite differences over every parameter of the model."""
    layers = []
    for layer in model.layers:
        grads = []
        for arr in (layer.weight, layer.bias):
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                lp, _ = tinynn.loss_and_grad(model, batch)
                arr[idx] = orig - h
                lm, _ = tinynn.loss_and_grad(model, batch)
                arr[idx] = orig
                g[idx] = (lp - lm) / (2.0 * h)
            grads.append(g)
        layers.append(LayerGrads(weight_grad=grads[0], bias_grad=grads[1]))
    return GradSet(layers)


def max_relative_grad_error(analytic: GradSet, numeric: GradSet, floor=1e-6) -> float:
    worst = 0.0
    for a, n in zip(analytic.layers, numeric.layers):
        for at, nt in ((a.weight_grad, n.weight_grad), (a.bias_grad, n.bias_grad)):
            denom = np.maximum(np.maximum(np.abs(at), np.abs(nt)), floor)
            worst = max(worst, float(np.max(np.abs(at - nt) / denom)))
    return worst


def fedavg_reference(model, ds, shards, selections, lr, batch_size, epochs, seed):
    """Plain sample-count-weighted federated averaging, written straight from
    the textbook recipe: train each selected client locally, average the raw
    updates by N_m, subtract. Batch order matches the library's seeding so
    the comparison isolates the aggregation path."""
    from svdlab import flsim

    model = model.copy()
    for rnd, selected in enumerate(selections):
        updates = []
        counts = []
        for cid in selected:
            local = model.copy()
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, flsim._TAG_CLIENT_BATCHES, rnd, cid])
            )
            shard = shards[cid]
            for _ in range(epochs):
                order = rng.permutation(len(shard))
                for start in range(0, len(shard), batch_size):
                    chunk = order[start : start + batch_size]
                    batch = [ds.examples[shard[i]] for i in chunk]
                    _, grads = tinynn.loss_and_grad(local, batch)
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
                tinynn.LayerParams(layer.weight - dw, layer.bias - db, layer.kind)
            )
        model = tinynn.ModelParams(new_layers)
    return model
