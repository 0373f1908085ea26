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
from .errors import InvalidInput, NumericalFailure, numerical_failure
from .tinynn import ModelParams

METHODS = ("none", "svdefense", "dp_gauss", "dp_lap", "prune", "dgp")
NOISE_METHODS = ("dp_gauss", "dp_lap")  # the methods that draw from a noise stream

_SVD, _RAW = 1, 2  # wire codes: factors, raw bitmap + stored values
_RATE = {"ge": 0, "lt": 1}
_HEADER_BYTES = 5  # code u8, k u32
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


@dataclass(kw_only=True)
class DefensePacket:
    """One transmitted tensor, whose id is its position in the upload: the
    truncated factors of a weight matrix (values is None), or the tensor's
    raw values in its own shape."""

    # factors
    channel_weights: np.ndarray | None = None
    u_star: np.ndarray | None = None
    sigma_star: np.ndarray | None = None
    vt_star: np.ndarray | None = None
    entropy: float = 0.0
    # raw
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
    strictly exceeds T, clamped to the count (at most r) of sigma >
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
    k = (e.cumsum(axis=-1) / total <= t[..., None]).sum(axis=-1) + 1
    return np.minimum(k, (sigma > linalg.RANK_TOL * sigma[..., :1]).sum(axis=-1)), h


def channel_weights(g: np.ndarray) -> np.ndarray:
    """Per-row root-sum-square magnitudes of each (..., p, q) matrix relative
    to its largest row, floored so the diagonal weight matrix stays invertible,
    and scaled exactly to a maximum in [0.5, 1): only their ratios matter, as
    the server divides them out, so g and g * 2**e get the same weights."""
    norms = np.sqrt(np.square(linalg._unit_scale(g, (-2, -1))[0]).sum(axis=-1))
    top = norms.max(axis=-1, keepdims=True)
    return linalg._unit_scale(np.maximum(norms, np.where(top > 0.0, 1e-8 * top, 1e-12)), -1)[0]


def defend_grad_svd(g: np.ndarray, beta: float) -> DefensePacket:
    """Weighted truncation of one gradient matrix (rows = output channels):
    rank_rule on the spectrum of w g, w its channel weights; g * 2**e changes
    only sigma_star, by 2**e. An all-zero g keeps rank 0 (a p x 0 u_star, no
    sigma, a 0 x q vt_star, entropy 0). NumericalFailure remains for subnormal
    entries that w g rounds to zero and for sigma beyond the largest double."""
    g = linalg.as_matrix(g)
    weights = channel_weights(g)
    with numerical_failure("the update's spectrum"):
        factors = linalg.svd(weights[:, None] * g)
    if factors.sigma[0] == 0.0 and g.any():  # w g underflowed: g's entries are subnormal
        raise NumericalFailure("all singular values are zero")
    k, entropy = rank_rule(factors.sigma, beta)
    return DefensePacket(
        channel_weights=weights,
        u_star=factors.u[:, :k] * g.any(axis=1)[:, None],  # g's zero rows rebuild as zeros
        sigma_star=factors.sigma[:k].copy(),
        vt_star=factors.vt[:k].copy(),
        entropy=float(entropy),
    )


def reconstruct_packet(packet: DefensePacket) -> np.ndarray:
    """Server-side reassembly: undo the channel weighting around the
    truncated factors; raw values are the tensor itself."""
    if packet.values is not None:
        return packet.values
    approx = (packet.u_star * packet.sigma_star) @ packet.vt_star
    return approx / packet.channel_weights[:, None]


def noise(rng: np.random.Generator, cfg: DefenseConfig, size) -> np.ndarray:
    """The noise defenses' law: zero-mean Gaussian (dp_gauss) or Laplace
    (dp_lap) draws of scale cfg.noise_scale, `size` of them from `rng`."""
    draw = rng.normal if cfg.method == "dp_gauss" else rng.laplace
    return draw(0.0, cfg.noise_scale, size)


def _at_or_above(mag: np.ndarray, s: np.ndarray, m: int) -> np.ndarray:
    """Mask of the entries of `mag` from position m, 0 < m < n, of the
    ascending order in which, of equal magnitudes, the lower flat index comes
    later; `s` is np.sort(mag). A tie group is split by flat index only if it
    straddles m."""
    v = s[m]
    if s[m - 1] < v:
        return mag >= v
    above = mag > v
    ties = np.flatnonzero(mag == v)
    above[ties[: np.searchsorted(s, v, "right") - m]] = True
    return above


def _pruned(t: np.ndarray, small_rate: float, large_rate: float = 0.0) -> np.ndarray:
    """A copy of the NaN-free `t` with its floor(large_rate n) largest and
    floor(small_rate n) smallest magnitudes zeroed, rates in [0, 1); -0.0
    has magnitude 0, and of equal magnitudes the lower flat index counts as
    the larger. The cuts are read off the sorted magnitudes, a sort of
    values that any sort algorithm returns alike."""
    flat = t.ravel()
    n = flat.size
    n_small, n_large = math.floor(small_rate * n), math.floor(large_rate * n)
    mag = np.abs(flat)
    s = np.sort(mag)
    keep = True
    if n_small:
        keep = _at_or_above(mag, s, n_small)
    if n_large:
        keep = keep & ~_at_or_above(mag, s, n - n_large)
    return np.where(keep, flat, 0.0).reshape(t.shape)


def _defend_tensor(t: np.ndarray, cfg: DefenseConfig, rng, carried):
    """(packet, dgp carry) for one tensor of an upload, a 2-D weight or a
    1-D bias; the carry is None outside dgp."""
    method, carry, given = cfg.method, None, t
    if method == "svdefense" and t.ndim == 2:
        return defend_grad_svd(t, cfg.beta), None
    if method in NOISE_METHODS and cfg.noise_scale > 0.0:
        t = t + noise(rng, cfg, t.shape)
    elif method == "prune":
        t = _pruned(t, cfg.prune_rate)
    elif method == "dgp":  # fold in what was pruned last round, carry what is pruned now
        t = t if carried is None else t + carried
        kept = _pruned(t, cfg.dgp_small_rate, cfg.dgp_large_rate)
        t, carry = kept, t - kept
    return DefensePacket(values=t.copy() if t is given else t), carry  # never share `given`


def defend_update(grads: list, cfg: DefenseConfig, seed, residual: list | None = None):
    """Turn a gradient set, a list of tensors in wire order (the order of
    ModelParams.tensors()), into transmittable packets under the configured
    method, one tensor at a time; the NOISE_METHODS draw from the stream
    np.random.default_rng(seed) in that order, and the others build none.

    Returns (packets, residual). For dgp the residual is the error feedback:
    what pruning removed from each tensor once the previous `residual` was
    added back in. It is None for the other methods.
    """
    rng = np.random.default_rng(seed) if cfg.method in NOISE_METHODS else None
    carried = residual if residual is not None else [None] * len(grads)
    packets, carries = zip(*(_defend_tensor(t, cfg, rng, c) for t, c in zip(grads, carried)))
    return list(packets), list(carries) if cfg.method == "dgp" else None


def packets_to_gradset(packets: list[DefensePacket], params: ModelParams) -> list:
    """Decode one upload for the model `params`: packet i carries tensor i
    (weight of layer l at 2l, its bias at 2l + 1), one packet for every
    tensor of the model, each decoding to that tensor's shape. Any other
    upload raises InvalidInput."""
    refs = params.tensors()
    if len(packets) != len(refs):
        raise InvalidInput(f"{len(packets)} packets for a model of {len(refs)} tensors")
    tensors = [reconstruct_packet(p) for p in packets]
    for tid, (t, ref) in enumerate(zip(tensors, refs)):
        if t.shape != ref.shape:
            raise InvalidInput(f"tensor {tid} decodes to {t.shape}, the model's is {ref.shape}")
    return tensors


def serialize_packet(packet: DefensePacket) -> bytes:
    """Little-endian layout.

    header: code u8, k u32. The tensor's id is its position in the upload
    and its shape, (p, q) or (p,), is the model's. svd payload (code 1):
    np.packbits of the p-entry mask of u_star's rows that hold a nonzero
    entry, then as f64 the channel weights (p), the marked rows of u_star,
    sigma_star (k), vt_star (k*q) and the entropy (1), so code, shape, k
    and the mask fix the size. A raw packet (code 2) of n values:
    np.packbits of the n-entry mask of stored values, those whose bits are
    not all zero (so -0.0 is stored and +0.0 is not), then the k stored
    values as f64 in flat order.
    """
    if packet.values is None:
        rows = packet.u_star.any(axis=1)
        parts = (packet.channel_weights, packet.u_star[rows], packet.sigma_star, packet.vt_star,
                 np.array([packet.entropy]))  # tobytes writes row-major
        code, k = _SVD, packet.sigma_star.size
        payload = np.packbits(rows).tobytes() + b"".join(a.astype(_F8).tobytes() for a in parts)
    else:
        values = np.asarray(packet.values, dtype=_F8).ravel()
        stored = values.view(_U8).astype(bool)
        where = stored.nonzero()  # integer indices: a mask index branches per entry
        code, k = _RAW, len(where[0])
        payload = np.packbits(stored).tobytes() + values[where].tobytes()
    return struct.pack("<BI", code, k) + payload


def _mask(blob: bytes, at: int, n: int) -> np.ndarray:
    """The positions of the set bits of the n-entry bitmap at byte `at` of
    `blob`; InvalidInput if the blob ends inside it or a pad bit is set."""
    end = at + -(-n // 8)
    if len(blob) < end or n % 8 and blob[end - 1] & (0xFF >> n % 8):
        raise InvalidInput(f"packet of {len(blob)} bytes cuts its {n}-entry mask short or sets "
                           "a pad bit")
    return np.unpackbits(np.frombuffer(blob, np.uint8, end - at, at)).view(bool).nonzero()[0]


def _raw_values(blob: bytes, n: int, k: int) -> np.ndarray:
    """The n values of a raw payload whose size is checked; InvalidInput for
    an encoding serialize_packet would not have written."""
    where = _mask(blob, _HEADER_BYTES, n)
    stored = np.frombuffer(blob, dtype=_F8, offset=_HEADER_BYTES + -(-n // 8))
    if len(where) != k or np.count_nonzero(stored.view(_U8)) != k:
        raise InvalidInput("raw packet is not in canonical form (mask count or a stored +0.0)")
    values = np.zeros(n)
    values[where] = stored
    return values


def deserialize_packet(blob: bytes, shape: tuple) -> DefensePacket:
    """Inverse of serialize_packet for a tensor of the model's `shape`, (p, q)
    or (p,) (then q = 0, so no svd packet fits); unmarked rows of u_star come
    back as +0.0. It accepts only the form serialize_packet writes; any
    malformed or non-canonical blob (a mask pad bit, a marked row all zero),
    a raw NaN, svd channel weights that are not finite and positive, svd
    factors that are not finite, more than min(p, q) kept values, a negative
    or increasing sigma_star, or an svd entropy outside [0, ln(min(p, q))]
    (relative slack 1e-12), raise InvalidInput."""
    if len(blob) < _HEADER_BYTES:
        raise InvalidInput(f"packet of {len(blob)} bytes is shorter than its header")
    code, k = struct.unpack_from("<BI", blob)
    if code not in (_SVD, _RAW):
        raise InvalidInput(f"unknown packet code {code}")
    p, q = (*shape, 0)[:2]
    n = math.prod(shape)
    rows = _mask(blob, _HEADER_BYTES, p) if code == _SVD else ()  # u_star's marked rows
    svd_size = -(-p // 8) + 8 * (p + len(rows) * k + k + k * q + 1)
    size = svd_size if code == _SVD else -(-n // 8) + 8 * k
    if len(blob) - _HEADER_BYTES != size:
        raise InvalidInput(f"packet payload does not hold the {size} bytes its tensor needs")
    if code == _RAW:
        values = _raw_values(blob, n, k)
        if np.isnan(values).any():  # honest noise overflows to +-inf, never to NaN
            raise InvalidInput("raw packet holds a NaN")
        return DefensePacket(values=values.reshape(shape))
    body = np.frombuffer(blob, dtype=_F8, offset=_HEADER_BYTES + -(-p // 8)).copy()
    at_sigma = p + len(rows) * k  # after the diag and the marked rows of u_star
    at_vt, at_entropy = at_sigma + k, at_sigma + k + k * q
    sigma, u = body[at_sigma:at_vt], body[p:at_sigma].reshape(len(rows), k)
    if not np.all((body[:p] > 0.0) & (body[:p] < np.inf)):
        raise InvalidInput("svd packet channel weights must be finite and positive")
    if not np.isfinite(body[p:at_entropy]).all():
        raise InvalidInput("svd packet factors must be finite")
    if not u.any(axis=1).all():
        raise InvalidInput("svd packet marks a row of u_star that is all zero")
    if k > min(p, q) or (sigma < 0.0).any() or (np.diff(sigma) > 0.0).any():
        raise InvalidInput("svd packet sigma_star must be at most min(p, q) non-negative, "
                           "non-increasing values")
    if not (min(p, q) and 0.0 <= body[at_entropy] <= math.log(min(p, q)) * (1 + 1e-12)):
        raise InvalidInput("svd packet entropy must lie in [0, ln(min(p, q))]")
    u_star = np.zeros((p, k))
    u_star[rows] = u
    return DefensePacket(
        channel_weights=body[:p],
        u_star=u_star,
        sigma_star=sigma,
        vt_star=body[at_vt:at_entropy].reshape(k, q),
        entropy=float(body[at_entropy]),
    )


def packet_bytes(packet: DefensePacket) -> int:
    return len(serialize_packet(packet))
