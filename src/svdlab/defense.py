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
from .errors import DegenerateInput, InvalidInput, numerical_failure
from .tinynn import ModelParams

METHODS = ("none", "svdefense", "dp_gauss", "dp_lap", "prune", "dgp")
NOISE_METHODS = ("dp_gauss", "dp_lap")  # the methods that draw from a noise stream

KIND_RAW = "raw"
KIND_SVD = "svd"
_KIND_CODES = {KIND_RAW: 0, KIND_SVD: 1}
_SPARSE = 2  # the wire code of a raw packet sent as a bitmap and its stored entries
_CODE_KINDS = {v: k for k, v in _KIND_CODES.items()} | {_SPARSE: KIND_RAW}
_RATE = {"ge": 0, "lt": 1}
_HEADER_BYTES = 4 + 17  # total_len u32, then layer_id, kind, p, q, k
_F8, _U8 = np.dtype("<f8"), np.dtype("<u8")


@dataclass(frozen=True)
class DefenseConfig:
    method: str = field(default="none", metadata={"choices": METHODS})
    beta: float = field(default=0.3, metadata={"gt": 0})
    noise_scale: float = field(default=0.03, metadata={"ge": 0})
    prune_rate: float = field(default=0.9, metadata=_RATE)
    dgp_small_rate: float = field(default=0.75, metadata=_RATE)
    dgp_large_rate: float = field(default=0.05, metadata=_RATE)

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


def rank_rule(sigma, beta: float):
    """The defense's entropy -> threshold -> rank rule on descending spectra
    (..., r) stacked on leading axes. H is the Shannon entropy (nats, with
    0 ln 0 = 0) of the normalized squared sigma, T = adaptive_threshold(H,
    beta), and k the smallest count whose cumulative squared-sigma fraction
    strictly exceeds T, at most r, then clamped to the count of sigma >
    RANK_TOL * max sigma, linalg.svd's own cut: a zero spectrum gets k = 0.
    Spectra are scaled exactly by powers of two before squaring, so that tiny
    or huge ones neither underflow nor overflow. Returns (k, H)."""
    sigma = np.asarray(sigma, dtype=np.float64)
    e = np.square(linalg._unit_scale(sigma, -1)[0])
    total = e.sum(axis=-1, keepdims=True)
    total = np.where(total > 0.0, total, 1.0)
    tilde = e / total
    h = -(tilde * np.log(tilde, out=np.zeros_like(tilde), where=tilde > 0.0)).sum(axis=-1)
    t = np.array([adaptive_threshold(x, beta) for x in np.ravel(h).tolist()]).reshape(h.shape)
    k = np.minimum((e.cumsum(axis=-1) / total <= t[..., None]).sum(axis=-1) + 1, e.shape[-1])
    return np.minimum(k, (sigma > linalg.RANK_TOL * sigma[..., :1]).sum(axis=-1)), h


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


def defend_grad_svd(g: np.ndarray, beta: float, layer_id: int = 0) -> DefensePacket:
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
    with numerical_failure("the channel-weighted update"):
        weighted = weights[:, None] * g
    factors = linalg.svd(weighted)
    if factors.sigma[0] == 0.0:  # w g underflowed: g is too small to weight
        raise DegenerateInput("all singular values are zero")
    k, entropy = rank_rule(factors.sigma, beta)
    return DefensePacket(
        layer_id=layer_id,
        kind=KIND_SVD,
        orig_shape=(p, q),
        channel_weights=weights,
        u_star=factors.u[:, :k].copy(),
        sigma_star=factors.sigma[:k].copy(),
        vt_star=factors.vt[:k].copy(),
        entropy=float(entropy),
    )


def reconstruct_packet(packet: DefensePacket) -> np.ndarray:
    """Server-side reassembly: undo the channel weighting around the
    truncated factors, or just reshape raw values."""
    if packet.kind == KIND_RAW:
        return packet.values.reshape(packet.orig_shape)
    approx = (packet.u_star * packet.sigma_star) @ packet.vt_star
    return approx / packet.channel_weights[:, None]


def noise(rng: np.random.Generator, cfg: DefenseConfig, size) -> np.ndarray:
    """The noise defenses' law: zero-mean Gaussian (dp_gauss) or Laplace
    (dp_lap) draws of scale cfg.noise_scale, `size` of them from `rng`."""
    draw = rng.normal if cfg.method == "dp_gauss" else rng.laplace
    return draw(0.0, cfg.noise_scale, size)


def _pruned(t: np.ndarray, small_rate: float, large_rate: float = 0.0) -> np.ndarray:
    """`t` with its floor(large_rate n) largest and floor(small_rate n)
    smallest magnitudes zeroed; of equal magnitudes the lower flat index
    counts as the larger."""
    flat = t.ravel().copy()
    order = np.argsort(-np.abs(flat), kind="stable")
    flat[order[: math.floor(large_rate * flat.size)]] = 0.0
    flat[order[flat.size - math.floor(small_rate * flat.size) :]] = 0.0
    return flat.reshape(t.shape)


def _defend_tensor(t: np.ndarray, tid: int, cfg: DefenseConfig, rng, carried):
    """(packet, dgp carry) for tensor `tid` of an upload, a weight at even
    ids and a bias at odd ones; the carry is None outside dgp."""
    method, carry = cfg.method, None
    if method == "svdefense" and tid % 2 == 0 and t.ndim == 2 and min(t.shape) >= 2:
        return defend_grad_svd(t, cfg.beta, layer_id=tid), None
    if method in NOISE_METHODS and cfg.noise_scale > 0.0:
        t = t + noise(rng, cfg, t.shape)
    elif method == "prune":
        t = _pruned(t, cfg.prune_rate)
    elif method == "dgp":  # fold in what was pruned last round, carry what is pruned now
        t = t if carried is None else t + carried
        kept = _pruned(t, cfg.dgp_small_rate, cfg.dgp_large_rate)
        t, carry = kept, t - kept
    return DefensePacket(layer_id=tid, kind=KIND_RAW, orig_shape=t.shape,
                         values=t.ravel().copy()), carry


def defend_update(
    grads: list,
    cfg: DefenseConfig,
    rng: np.random.Generator | None = None,
    residual: list | None = None,
):
    """Turn a gradient set, a list of tensors in wire order (the order of
    ModelParams.tensors()), into transmittable packets under the configured
    method, one tensor at a time; the NOISE_METHODS draw from `rng` in that
    order, and raise InvalidInput without one; the others take no stream.

    Returns (packets, residual). For dgp the residual is the error feedback:
    what pruning removed from each tensor once the previous `residual` was
    added back in. It is None for the other methods.
    """
    if rng is None and cfg.method in NOISE_METHODS:
        raise InvalidInput(f"defense method {cfg.method} needs a noise stream")
    carried = residual if residual is not None else [None] * len(grads)
    packets, carries = zip(*(_defend_tensor(t, tid, cfg, rng, c)
                             for tid, (t, c) in enumerate(zip(grads, carried))))
    return list(packets), list(carries) if cfg.method == "dgp" else None


def packets_to_gradset(packets: list[DefensePacket], params: ModelParams) -> list:
    """Decode one upload for the model `params`: packet i must carry tensor id
    i (weight of layer l at 2l, its bias at 2l + 1) for every tensor of the
    model, declaring and decoding to that tensor's shape. Any other upload
    raises InvalidInput."""
    refs = params.tensors()
    if [p.layer_id for p in packets] != list(range(len(refs))):
        raise InvalidInput(f"packet ids must be 0..{len(refs) - 1} in order")
    tensors = [reconstruct_packet(p) for p in packets]
    for p, t, ref in zip(packets, tensors, refs):
        if tuple(p.orig_shape) != t.shape or t.shape != ref.shape:
            raise InvalidInput(f"tensor {p.layer_id} declares shape {tuple(p.orig_shape)} and "
                               f"decodes to {t.shape}, the model's is {ref.shape}")
    return tensors


def _sparse_pays(n: int, k: int) -> bool:
    """Whether n raw values, k of them stored (not +0.0), are shorter sent as
    a bitmap and the k values than as all n values."""
    return -(-n // 8) + 8 * k < 8 * n


def serialize_packet(packet: DefensePacket) -> bytes:
    """Length-prefixed little-endian layout.

    header: total_len u32, layer_id u32, kind u8, p u32, q u32, k u32;
    svd payload (kind 1): diag (p), u_star (p*k), sigma_star (k), vt_star
    (k*q), entropy (1), all f64. A raw packet holds n = p values (q == 0
    marks a 1-D tensor) or p*q, and takes the shorter of two lossless
    payloads: dense (kind 0, k = 0) is the n values as f64; sparse (kind 2)
    is np.packbits of the n-entry mask of stored values, those whose bits
    are not all zero (so -0.0 is stored and +0.0 is not), then the k stored
    values as f64 in flat order. Sparse is chosen iff ceil(n/8) + 8k < 8n.
    """
    if packet.kind == KIND_SVD:
        p, q = packet.orig_shape
        code, k = _KIND_CODES[KIND_SVD], len(packet.sigma_star)
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
        values = np.asarray(packet.values, dtype=_F8)
        stored = values.view(_U8).astype(bool)
        where = stored.nonzero()  # integer indices: a mask index branches per entry
        code, k = _KIND_CODES[KIND_RAW], len(where[0])
        if _sparse_pays(values.size, k):
            code, payload = _SPARSE, np.packbits(stored).tobytes() + values[where].tobytes()
        else:
            k, payload = 0, values.tobytes()
    return struct.pack("<IIBIII", _HEADER_BYTES + len(payload), packet.layer_id, code, p, q,
                       k) + payload


def _raw_values(blob: bytes, code: int, n: int, k: int) -> np.ndarray:
    """The n values of a dense or sparse raw payload whose size is checked;
    InvalidInput for an encoding serialize_packet would not have written."""
    if code != _SPARSE:
        values = np.frombuffer(blob, dtype=_F8, offset=_HEADER_BYTES).copy()
        if _sparse_pays(n, np.count_nonzero(values.view(_U8))):
            raise InvalidInput("dense raw packet that the sparse form would shorten")
        return values
    n_mask = -(-n // 8)
    pad_bits = n % 8 and blob[_HEADER_BYTES + n_mask - 1] & (0xFF >> n % 8)
    mask = np.unpackbits(np.frombuffer(blob, np.uint8, n_mask, _HEADER_BYTES), count=n)
    where = mask.view(bool).nonzero()
    stored = np.frombuffer(blob, dtype=_F8, offset=_HEADER_BYTES + n_mask)
    if (pad_bits or len(where[0]) != k or not _sparse_pays(n, k)
            or np.count_nonzero(stored.view(_U8)) != k):
        raise InvalidInput("sparse raw packet is not in canonical form (pad bits, mask "
                           "count, a stored +0.0, or no shorter than dense)")
    values = np.zeros(n)
    values[where] = stored
    return values


def deserialize_packet(blob: bytes) -> DefensePacket:
    """Inverse of serialize_packet, which it accepts only in the form
    serialize_packet writes; any malformed or non-canonical blob, svd channel
    weights that are not finite and positive, or an svd entropy outside [0,
    ln(min(p, q))] (relative slack 1e-12), raise InvalidInput."""
    if len(blob) < _HEADER_BYTES or struct.unpack_from("<I", blob, 0)[0] != len(blob):
        raise InvalidInput("packet length prefix does not match payload")
    layer_id, code, p, q, k = struct.unpack_from("<IBIII", blob, 4)
    kind = _CODE_KINDS.get(code)
    if kind is None:
        raise InvalidInput(f"unknown packet kind code {code}")
    n = p * max(q, 1)
    size = (8 * (p + p * k + k + k * q + 1) if kind == KIND_SVD
            else -(-n // 8) + 8 * k if code == _SPARSE else 8 * n)
    if len(blob) - _HEADER_BYTES != size or (code == _KIND_CODES[KIND_RAW] and k != 0):
        raise InvalidInput(f"packet payload does not hold the {size} bytes it declares")
    if kind == KIND_RAW:
        shape = (p, q) if q > 0 else (p,)
        return DefensePacket(layer_id=layer_id, kind=kind, orig_shape=shape,
                             values=_raw_values(blob, code, n, k))
    body = np.frombuffer(blob, dtype=_F8, offset=_HEADER_BYTES).copy()
    at_sigma = p + p * k  # after the diag and u_star
    at_vt, at_entropy = at_sigma + k, at_sigma + k + k * q
    if not np.all((body[:p] > 0.0) & (body[:p] < np.inf)):
        raise InvalidInput("svd packet channel weights must be finite and positive")
    if not (min(p, q) and 0.0 <= body[at_entropy] <= math.log(min(p, q)) * (1 + 1e-12)):
        raise InvalidInput("svd packet entropy must lie in [0, ln(min(p, q))]")
    return DefensePacket(
        layer_id=layer_id,
        kind=kind,
        orig_shape=(p, q),
        channel_weights=body[:p],
        u_star=body[p:at_sigma].reshape(p, k),
        sigma_star=body[at_sigma:at_vt],
        vt_star=body[at_vt:at_entropy].reshape(k, q),
        entropy=float(body[at_entropy]),
    )


def packet_bytes(packet: DefensePacket) -> int:
    return len(serialize_packet(packet))
