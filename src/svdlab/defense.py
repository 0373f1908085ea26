"""Client-side gradient obfuscation.

The main pipeline weights a gradient matrix by per-output-channel magnitudes,
factorizes it, picks a truncation rank from an entropy-driven energy
threshold, and ships the truncated factors. The server inverts the channel
weighting when it reassembles the matrix. Baseline defenses (Gaussian/Laplace
noise, magnitude pruning, dual pruning with error feedback) share the same
packet transport.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import linalg, schema
from .errors import InvalidConfig, InvalidInput
from .tinynn import GradSet, LayerGrads

METHODS = ("none", "svdefense", "dp_gauss", "dp_lap", "prune", "dgp")
BASELINES = ("dp_gauss", "dp_lap", "prune", "dgp")

KIND_RAW = "raw"
KIND_SVD = "svd"
_KIND_CODES = {KIND_RAW: 0, KIND_SVD: 1}
_CODE_KINDS = {v: k for k, v in _KIND_CODES.items()}
_RATE = {"ge": 0, "lt": 1}
_HEADER_BYTES = 4 + 17  # total_len u32, then layer_id, kind, p, q, k


@dataclass(frozen=True)
class DefenseConfig:
    method: str = field(default="none", metadata={"choices": METHODS})
    beta: float = field(default=0.3, metadata={"gt": 0})
    noise_scale: float = field(default=0.03, metadata={"ge": 0})
    prune_rate: float = field(default=0.9, metadata=_RATE)
    dgp_small_rate: float = field(default=0.75, metadata=_RATE)
    dgp_large_rate: float = field(default=0.05, metadata=_RATE)
    defend_bias: str = field(default="raw", metadata={"choices": ("raw", "zero")})
    entropy_source: str = field(
        default="weighted", metadata={"choices": ("weighted", "unweighted")}
    )
    seed: int = field(default=0, metadata={"derived": "seed"})

    def validate(self) -> list[str]:
        errors = schema.check(self)
        if not errors and self.dgp_small_rate + self.dgp_large_rate >= 1.0:
            errors.append("dgp_small_rate + dgp_large_rate must be < 1")
        return errors


@dataclass
class DefensePacket:
    """One transmitted tensor: either truncated factors or raw values."""

    layer_id: int
    kind: str
    orig_shape: tuple
    # svd kind
    channel_weights: np.ndarray | None = None
    u_star: np.ndarray | None = None
    sigma_star: np.ndarray | None = None
    vt_star: np.ndarray | None = None
    entropy: float = 0.0
    # raw kind
    values: np.ndarray | None = None


def adaptive_threshold(entropy: float, beta: float) -> float:
    """Energy threshold 1 - exp(-beta * entropy); 0 at zero entropy and
    monotone increasing, approaching 1 for very spread spectra."""
    if entropy < 0.0:
        raise InvalidInput("entropy must be non-negative")
    if beta <= 0.0:
        raise InvalidInput("beta must be positive")
    return 1.0 - math.exp(-beta * entropy)


def channel_weights(g: np.ndarray) -> np.ndarray:
    """Per-row root-sum-square magnitudes of each (..., p, q) matrix, floored
    so the diagonal weight matrix stays invertible. Each matrix is scaled by
    an exact power of two first, so norms of tiny or huge rows stay exact."""
    g = np.asarray(g, dtype=np.float64)
    linalg.as_matrix(g.reshape(-1, g.shape[-1]) if g.ndim > 2 else g)  # finite, non-empty
    unit, e = linalg._unit_scale(g, (-2, -1))
    norms = np.ldexp(np.sqrt(np.square(unit).sum(axis=-1)), e[..., 0])
    top = norms.max(axis=-1, keepdims=True)
    return np.maximum(norms, np.where(top > 0.0, 1e-8 * top, 1e-12))


def defend_grad_svd(
    g: np.ndarray,
    beta: float,
    layer_id: int = 0,
    entropy_source: str = "weighted",
) -> DefensePacket:
    """Weighted truncation of one gradient matrix (rows = output channels).

    Zero matrices take a documented degenerate path: rank-1 zero factors and
    zero entropy, so the transport layer never has to special-case them.
    """
    g = linalg.as_matrix(g)
    p, q = g.shape
    if p < 2 or q < 2:
        raise InvalidInput("matrices below 2x2 take the raw path, not the SVD path")
    weights = channel_weights(g)
    if not np.any(g):
        return DefensePacket(
            layer_id=layer_id,
            kind=KIND_SVD,
            orig_shape=(p, q),
            channel_weights=weights,
            u_star=np.zeros((p, 1)),
            sigma_star=np.zeros(1),
            vt_star=np.zeros((1, q)),
            entropy=0.0,
        )
    factors = linalg.svd(weights[:, None] * g)
    if entropy_source == "unweighted":
        entropy = linalg.singular_entropy(linalg.svd(g).sigma)
    else:
        entropy = linalg.singular_entropy(factors.sigma)
    threshold = adaptive_threshold(entropy, beta)
    trunc = linalg.truncate_by_energy(factors, threshold)
    return DefensePacket(
        layer_id=layer_id,
        kind=KIND_SVD,
        orig_shape=(p, q),
        channel_weights=weights,
        u_star=trunc.u_star,
        sigma_star=trunc.sigma_star,
        vt_star=trunc.vt_star,
        entropy=entropy,
    )


def reconstruct_packet(packet: DefensePacket) -> np.ndarray:
    """Server-side reassembly: undo the channel weighting around the
    truncated factors, or just reshape raw values."""
    if packet.kind == KIND_RAW:
        return packet.values.reshape(packet.orig_shape)
    approx = (packet.u_star * packet.sigma_star) @ packet.vt_star
    return approx / packet.channel_weights[:, None]


def _survivor_order(flat: np.ndarray) -> np.ndarray:
    # descending |value|; ties keep the lower flat index first
    return np.argsort(-np.abs(flat), kind="stable")


def _prune_tensor(t: np.ndarray, rate: float) -> np.ndarray:
    flat = t.ravel().copy()
    n_zero = int(math.floor(rate * flat.size))
    if n_zero > 0:
        order = _survivor_order(flat)
        flat[order[flat.size - n_zero :]] = 0.0
    return flat.reshape(t.shape)


def _dgp_tensor(t: np.ndarray, small_rate: float, large_rate: float) -> np.ndarray:
    flat = t.ravel().copy()
    n_small = int(math.floor(small_rate * flat.size))
    n_large = int(math.floor(large_rate * flat.size))
    order = _survivor_order(flat)
    if n_large > 0:
        flat[order[:n_large]] = 0.0
    if n_small > 0:
        flat[order[flat.size - n_small :]] = 0.0
    return flat.reshape(t.shape)


def defend_baseline(
    grads: GradSet,
    cfg: DefenseConfig,
    rng: np.random.Generator | None = None,
    residual: GradSet | None = None,
):
    """Apply a baseline defense to a whole gradient set.

    Returns (defended, residual). The residual is only meaningful for dgp,
    whose error feedback adds the previous round's pruned values back to the
    raw gradients before pruning again; it is None for the other methods.
    """
    if cfg.method not in BASELINES:
        raise InvalidConfig(f"{cfg.method!r} is not a baseline defense")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)

    if cfg.method in ("dp_gauss", "dp_lap"):
        out = grads.copy()
        if cfg.noise_scale > 0.0:
            for layer in out.layers:
                for t in (layer.weight_grad, layer.bias_grad):
                    if cfg.method == "dp_gauss":
                        t += rng.normal(0.0, cfg.noise_scale, t.shape)
                    else:
                        t += rng.laplace(0.0, cfg.noise_scale, t.shape)
        return out, None

    if cfg.method == "prune":
        out = GradSet(
            [
                LayerGrads(
                    _prune_tensor(g.weight_grad, cfg.prune_rate),
                    _prune_tensor(g.bias_grad, cfg.prune_rate),
                )
                for g in grads.layers
            ]
        )
        return out, None

    # dgp: fold in the carried residual, dual-prune, carry what was removed
    effective = grads.copy()
    if residual is not None:
        for eff, res in zip(effective.layers, residual.layers):
            eff.weight_grad += res.weight_grad
            eff.bias_grad += res.bias_grad
    out_layers = []
    new_residual = []
    for eff in effective.layers:
        w = _dgp_tensor(eff.weight_grad, cfg.dgp_small_rate, cfg.dgp_large_rate)
        b = _dgp_tensor(eff.bias_grad, cfg.dgp_small_rate, cfg.dgp_large_rate)
        out_layers.append(LayerGrads(w, b))
        new_residual.append(LayerGrads(eff.weight_grad - w, eff.bias_grad - b))
    return GradSet(out_layers), GradSet(new_residual)


def defend_update(
    grads: GradSet,
    cfg: DefenseConfig,
    rng: np.random.Generator | None = None,
    residual: GradSet | None = None,
):
    """Turn a gradient set into transmittable packets under the configured
    method. Tensor ids: weight of layer l -> 2l, bias -> 2l + 1.

    Returns (packets, residual) with the residual as in defend_baseline.
    """
    new_residual = None
    if cfg.method in BASELINES:
        grads, new_residual = defend_baseline(grads, cfg, rng, residual)

    packets = []
    for l, layer in enumerate(grads.layers):
        w = layer.weight_grad
        if cfg.method == "svdefense" and w.ndim == 2 and min(w.shape) >= 2:
            packets.append(
                defend_grad_svd(w, cfg.beta, layer_id=2 * l, entropy_source=cfg.entropy_source)
            )
        else:
            packets.append(
                DefensePacket(
                    layer_id=2 * l, kind=KIND_RAW, orig_shape=w.shape, values=w.ravel().copy()
                )
            )
        bias = layer.bias_grad
        if cfg.method == "svdefense" and cfg.defend_bias == "zero":
            bias = np.zeros_like(bias)
        packets.append(
            DefensePacket(
                layer_id=2 * l + 1,
                kind=KIND_RAW,
                orig_shape=bias.shape,
                values=bias.ravel().copy(),
            )
        )
    return packets, new_residual


def packets_to_gradset(packets: list[DefensePacket]) -> GradSet:
    """Reassemble a full gradient set from per-tensor packets."""
    by_id = {p.layer_id: p for p in packets}
    if sorted(by_id) != list(range(len(packets))) or len(packets) % 2 != 0:
        raise InvalidInput("packet ids must cover weight/bias pairs 0..2L-1")
    layers = []
    for l in range(len(packets) // 2):
        layers.append(
            LayerGrads(
                weight_grad=reconstruct_packet(by_id[2 * l]),
                bias_grad=reconstruct_packet(by_id[2 * l + 1]),
            )
        )
    return GradSet(layers)


def parameter_count(packet: DefensePacket) -> int:
    """Number of float64 values the packet payload carries."""
    if packet.kind == KIND_RAW:
        return int(packet.values.size)
    p, q = packet.orig_shape
    k = len(packet.sigma_star)
    return p + p * k + k + k * q + 1  # diag, U*, sigma*, V*^T, entropy


def serialize_packet(packet: DefensePacket) -> bytes:
    """Length-prefixed little-endian layout.

    header: total_len u32, layer_id u32, kind u8, p u32, q u32, k u32;
    svd payload: diag (p), u_star (p*k), sigma_star (k), vt_star (k*q),
    entropy (1), all f64; raw payload: the values (q == 0 marks a 1-D
    tensor of length p).
    """
    if packet.kind == KIND_SVD:
        p, q = packet.orig_shape
        k = len(packet.sigma_star)
        payload = b"".join(
            a.astype("<f8").tobytes()
            for a in (
                packet.channel_weights,
                packet.u_star.ravel(),
                packet.sigma_star,
                packet.vt_star.ravel(),
                np.array([packet.entropy]),
            )
        )
    else:
        if len(packet.orig_shape) == 2:
            p, q = packet.orig_shape
        else:
            p, q = packet.orig_shape[0], 0
        k = 0
        payload = packet.values.astype("<f8").tobytes()
    header = struct.pack("<IBIII", packet.layer_id, _KIND_CODES[packet.kind], p, q, k)
    total = struct.pack("<I", 4 + len(header) + len(payload))
    return total + header + payload


def deserialize_packet(blob: bytes) -> DefensePacket:
    """Inverse of serialize_packet; any malformed blob raises InvalidInput."""
    if len(blob) < _HEADER_BYTES or struct.unpack_from("<I", blob, 0)[0] != len(blob):
        raise InvalidInput("packet length prefix does not match payload")
    layer_id, code, p, q, k = struct.unpack_from("<IBIII", blob, 4)
    kind = _CODE_KINDS.get(code)
    if kind is None:
        raise InvalidInput(f"unknown packet kind code {code}")
    n_values = p * max(q, 1) if kind == KIND_RAW else p + p * k + k + k * q + 1
    if len(blob) - _HEADER_BYTES != 8 * n_values or (kind == KIND_RAW and k != 0):
        raise InvalidInput(f"packet payload does not hold the {n_values} values it declares")
    body = np.frombuffer(blob, dtype="<f8", offset=_HEADER_BYTES).copy()
    if kind == KIND_RAW:
        shape = (p, q) if q > 0 else (p,)
        return DefensePacket(layer_id=layer_id, kind=kind, orig_shape=shape, values=body)
    diag, u, sig, vt, entropy = np.split(body, np.cumsum([p, p * k, k, k * q]))
    return DefensePacket(
        layer_id=layer_id,
        kind=kind,
        orig_shape=(p, q),
        channel_weights=diag,
        u_star=u.reshape(p, k),
        sigma_star=sig,
        vt_star=vt.reshape(k, q),
        entropy=float(entropy[0]),
    )


def packet_bytes(packet: DefensePacket) -> int:
    return len(serialize_packet(packet))
