"""Small dense classifier with explicit forward/backward passes.

The model is a chain of fully connected layers: every layer but the last is
ReLU-activated, and the last is the softmax cross-entropy output. Gradients
are computed by hand so that (a) they can be checked against finite
differences and (b) the attack engine can differentiate *through* the
gradient computation without an autodiff framework.

All functions are pure: parameters in, new values out. The one exception
is load_model, which reads a checkpoint file.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, numerical_failure

MODEL_MAGIC = b"SVDLAB-MODEL-v2\n"


@dataclass
class LayerParams:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)


@dataclass
class ModelParams:
    layers: list[LayerParams]

    def __post_init__(self):
        if not self.layers:
            raise InvalidInput("model needs at least one layer")
        for prev, cur in zip(self.layers, self.layers[1:]):
            if cur.weight.shape[1] != prev.weight.shape[0]:
                raise InvalidInput(
                    f"layer dims do not chain: {prev.weight.shape[0]} -> {cur.weight.shape[1]}"
                )

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def num_classes(self) -> int:
        return self.layers[-1].weight.shape[0]

    def tensors(self) -> list:
        """Every parameter in wire order: layer l's weight is id 2l, its bias
        2l + 1. A gradient set is a list of arrays in this order and shape."""
        return [t for l in self.layers for t in (l.weight, l.bias)]


def init_model(input_dim: int, hidden_dims, num_classes: int, seed: int = 0) -> ModelParams:
    """Default architecture: dense+ReLU hidden layers, softmax output.

    Weights are Gaussian with std 1/sqrt(fan_in); biases start at zero.
    """
    rng = np.random.default_rng(seed)
    dims = [input_dim, *hidden_dims, num_classes]
    return ModelParams([LayerParams(rng.normal(0.0, 1.0 / np.sqrt(i), size=(o, i)), np.zeros(o))
                        for i, o in zip(dims, dims[1:])])


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    e /= e.sum(axis=-1, keepdims=True)
    return e


def forward_batch(params: ModelParams, x: np.ndarray):
    """Run a (..., n, D) batch through the network; leading axes stack
    independent batches, each computed exactly as it would be alone.

    Returns (logits, activations, preacts) where activations[l] is the input
    to layer l (activations[0] is the batch itself) and preacts[l] is layer
    l's affine output. Both caches are what the backward pass consumes.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] != params.input_dim:
        raise InvalidInput(
            f"batch shape {x.shape} does not match input dim {params.input_dim}"
        )
    activations, preacts = [x], []
    for layer in params.layers:
        if preacts:  # the layer before is hidden: ReLU
            activations.append(np.maximum(preacts[-1], 0.0))
        preacts.append(activations[-1] @ layer.weight.T)
        preacts[-1] += layer.bias
    return preacts[-1], activations, preacts


def backprop(params: ModelParams, x: np.ndarray, y: np.ndarray):
    """The one model pass over the (..., n, D) batch x with soft targets y
    (..., n, C): mean parameter gradients over the n examples of each batch,
    in wire order (ModelParams.tensors), plus the (activations, masks, probs,
    deltas) cache that the attack engine reads. activations[0] is x itself,
    not a copy; masks[l] is hidden layer l's ReLU mask, 1.0 where its
    pre-activation is > 0 and 0.0 elsewhere (float, so products with it need
    no cast), formed once here; deltas[l] is layer l's backpropagated error
    signal. The gradients are new arrays that the caller owns."""
    logits, activations, preacts = forward_batch(params, x)
    probs = _softmax(logits)
    masks = [(z > 0.0).astype(np.float64) for z in preacts[:-1]]
    deltas = [probs - y]
    for l in range(len(params.layers) - 2, -1, -1):
        deltas.insert(0, deltas[0] @ params.layers[l + 1].weight)
        deltas[0] *= masks[l]
    n = activations[0].shape[-2]
    grads = [t for a, d in zip(activations, deltas)
             for t in (d.swapaxes(-1, -2) @ a, d.sum(axis=-2))]
    for g in grads:
        g /= n
    return grads, (activations, masks, probs, deltas)


def sgd_step(params: ModelParams, grads: list, lr: float) -> ModelParams:
    if lr <= 0.0:
        raise InvalidInput("learning rate must be positive")
    return ModelParams([
        LayerParams(lp.weight - lr * grads[2 * l], lp.bias - lr * grads[2 * l + 1])
        for l, lp in enumerate(params.layers)
    ])


def accuracy(params: ModelParams, x, labels) -> float:
    """Fraction of the rows of x (n, D) predicted as their labels (n,). A
    forward pass that overflows raises NumericalFailure."""
    if np.ndim(x) != 2 or not len(labels) or len(labels) != len(x):
        raise InvalidInput(f"need a non-empty (n, D) evaluation set and n labels, "
                           f"got {np.shape(x)} and {len(labels)} labels")
    with numerical_failure("the forward pass of the evaluation set"):
        logits, _, _ = forward_batch(params, x)
        return float(np.mean(np.argmax(logits, axis=1) == labels))


def model_bytes(params: ModelParams) -> bytes:
    """Binary checkpoint: MODEL_MAGIC, the width count n u32, the n layer
    widths u32 (input first, classes last), then every tensor in wire order
    (ModelParams.tensors) as row-major little-endian f64."""
    dims = [params.input_dim, *(layer.weight.shape[0] for layer in params.layers)]
    return b"".join([MODEL_MAGIC, struct.pack(f"<{len(dims) + 1}I", len(dims), *dims),
                     *(t.astype("<f8").tobytes() for t in params.tensors())])


def load_model(path) -> ModelParams:
    """Read a model_bytes checkpoint from the file `path`; a malformed file
    raises InvalidInput, and a declared size is checked against the file
    before it is read."""
    with open(path, "rb") as fh:
        blob = fh.read()
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(blob):
            raise InvalidInput(f"{path}: checkpoint is truncated")
        pos += n
        return blob[pos - n : pos]

    if take(len(MODEL_MAGIC)) != MODEL_MAGIC:
        raise InvalidInput(f"{path}: not a model checkpoint (bad magic)")
    (n,) = struct.unpack("<I", take(4))
    dims = struct.unpack(f"<{n}I", take(4 * n))
    if n < 2 or not all(dims):
        raise InvalidInput(f"{path}: layer widths {list(dims)}; a model needs at least two "
                           "widths, none of them 0")
    layers = []
    for l, (i, o) in enumerate(zip(dims, dims[1:])):
        w = np.frombuffer(take(8 * o * i), dtype="<f8").reshape(o, i)
        b = np.frombuffer(take(8 * o), dtype="<f8")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise InvalidInput(f"{path}: layer {l} holds non-finite values")
        layers.append(LayerParams(w.astype(np.float64), b.astype(np.float64)))
    if pos != len(blob):
        raise InvalidInput(f"{path}: {len(blob) - pos} bytes follow the last layer")
    return ModelParams(layers)
