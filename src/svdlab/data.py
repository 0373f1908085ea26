"""Synthetic dataset generation and client partitioning.

The dataset is hermetic: each class is a deterministic oriented stripe
template plus per-example Gaussian pixel noise, so reconstruction quality is
visually and numerically meaningful without downloading anything. Two
partitioners control class imbalance: a geometric per-class decay (balance
ratio rho) and Dirichlet proportions.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, InvalidInput
from .tinynn import Example

NOISE_SIGMA = 0.1
_LEVEL_LO = 0.15
_LEVEL_HI = 0.85
# (angle, cycles) pairs; the phase keeps every pair of stripe patterns at
# mean absolute distance >= 0.28 for sides 8..16
_STRIPE_PHASE = 7 * np.pi / 16
_TEMPLATE_PARAMS = [
    (angle, cycles)
    for cycles in (1.0, 2.0, 3.0)
    for angle in (0.0, np.pi / 2, np.pi / 4, 3 * np.pi / 4)
]


@dataclass
class Dataset:
    examples: list[Example]
    num_classes: int
    input_dim: int
    side: int


@dataclass
class Partition:
    """Per-client example-index lists plus per-client per-class counts."""

    client_shards: list[list[int]]
    balance_profile: list[np.ndarray]


def class_template(cls: int, side: int) -> np.ndarray:
    """Deterministic stripe template for a class, flattened to side*side."""
    if cls >= len(_TEMPLATE_PARAMS):
        raise InvalidConfig(
            f"only {len(_TEMPLATE_PARAMS)} distinct class templates are defined"
        )
    angle, cycles = _TEMPLATE_PARAMS[cls]
    coords = (np.arange(side) + 0.5) / side
    xx, yy = np.meshgrid(coords, coords)
    proj = xx * np.cos(angle) + yy * np.sin(angle)
    wave = np.sin(2.0 * np.pi * cycles * proj + _STRIPE_PHASE)
    img = np.where(wave >= 0.0, _LEVEL_HI, _LEVEL_LO)
    return img.ravel()


def make_synthetic(num_classes: int, per_class: int, side: int, seed: int) -> Dataset:
    """side x side grayscale images, `per_class` noisy copies of each class
    template, clipped to [0, 1]. Deterministic for a fixed seed."""
    if num_classes < 2:
        raise InvalidConfig("need at least two classes")
    if per_class < 1 or side < 4:
        raise InvalidConfig("per_class must be >= 1 and side >= 4")
    rng = np.random.default_rng(seed)
    examples = []
    for cls in range(num_classes):
        template = class_template(cls, side)
        for _ in range(per_class):
            img = np.clip(template + rng.normal(0.0, NOISE_SIGMA, template.shape), 0.0, 1.0)
            examples.append(Example(input=img, label=cls))
    return Dataset(
        examples=examples, num_classes=num_classes, input_dim=side * side, side=side
    )


def _class_indices(ds: Dataset) -> list[np.ndarray]:
    labels = np.array([ex.label for ex in ds.examples])
    return [np.flatnonzero(labels == c) for c in range(ds.num_classes)]


def _profile(ds: Dataset, shard: list[int]) -> np.ndarray:
    counts = np.zeros(ds.num_classes, dtype=np.int64)
    for idx in shard:
        counts[ds.examples[idx].label] += 1
    return counts


def partition_rho(ds: Dataset, rho: float, seed: int) -> Partition:
    """Single-client shard with geometrically decayed class counts.

    The class order is shuffled by the seed; the class at shuffled position i
    keeps ceil(N_i * rho**i) of its examples (ceil so no class vanishes).
    rho=1 keeps everything.
    """
    if not 0.0 < rho <= 1.0:
        raise InvalidConfig(f"rho must be in (0, 1], got {rho}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(ds.num_classes)
    by_class = _class_indices(ds)
    kept: list[int] = []
    for pos, cls in enumerate(order):
        n = len(by_class[cls])
        keep = int(np.ceil(n * rho**pos))
        kept.extend(int(i) for i in by_class[cls][:keep])
    kept.sort()
    return Partition(client_shards=[kept], balance_profile=[_profile(ds, kept)])


def partition_rho_clients(ds: Dataset, num_clients: int, rho: float, seed: int) -> Partition:
    """Multi-client variant: each client receives an equal class-balanced
    slice of the dataset and then applies its own seeded rho decay."""
    if num_clients < 1:
        raise InvalidConfig("need at least one client")
    by_class = _class_indices(ds)
    shards: list[list[int]] = []
    for m in range(num_clients):
        slice_ds_indices: list[int] = []
        for idxs in by_class:
            chunk = np.array_split(idxs, num_clients)[m]
            slice_ds_indices.extend(int(i) for i in chunk)
        sub_rng = np.random.default_rng(np.random.SeedSequence([seed, m]))
        order = sub_rng.permutation(ds.num_classes)
        labels = np.array([ds.examples[i].label for i in slice_ds_indices])
        kept: list[int] = []
        for pos, cls in enumerate(order):
            mine = [i for i, lab in zip(slice_ds_indices, labels) if lab == cls]
            keep = int(np.ceil(len(mine) * rho**pos)) if mine else 0
            kept.extend(mine[:keep])
        kept.sort()
        shards.append(kept)
    if any(not s for s in shards):
        raise InvalidConfig("a client shard came out empty; add data or clients")
    return Partition(
        client_shards=shards, balance_profile=[_profile(ds, s) for s in shards]
    )


def partition_dirichlet(ds: Dataset, num_clients: int, alpha: float, seed: int) -> Partition:
    """Split every class across clients by Dirichlet(alpha) proportions.

    Proportions are normalized Gamma draws; per-class counts are floored with
    the remainder going to the largest share. Empty shards are repaired by
    moving one example from the largest shard.
    """
    if num_clients < 2:
        raise InvalidConfig("need at least two clients")
    if alpha <= 0.0:
        raise InvalidConfig("alpha must be positive")
    if num_clients > len(ds.examples):
        raise InvalidConfig("more clients than examples")
    rng = np.random.default_rng(seed)
    shards: list[list[int]] = [[] for _ in range(num_clients)]
    for idxs in _class_indices(ds):
        draws = rng.gamma(alpha, 1.0, size=num_clients)
        total = draws.sum()
        props = draws / total if total > 0.0 else np.full(num_clients, 1.0 / num_clients)
        counts = np.floor(props * len(idxs)).astype(np.int64)
        counts[int(np.argmax(props))] += len(idxs) - counts.sum()
        start = 0
        for m in range(num_clients):
            shards[m].extend(int(i) for i in idxs[start : start + counts[m]])
            start += counts[m]
    while any(not s for s in shards):
        empty = next(m for m, s in enumerate(shards) if not s)
        largest = max(range(num_clients), key=lambda m: len(shards[m]))
        shards[empty].append(shards[largest].pop())
    for s in shards:
        s.sort()
    return Partition(
        client_shards=shards, balance_profile=[_profile(ds, s) for s in shards]
    )


def _read_idx(path, magic: int, dims: int) -> tuple[list[int], np.ndarray]:
    """(sizes, uint8 payload) of an IDX file whose header is `magic` and then
    `dims` big-endian uint32 sizes. Raises InvalidInput on a bad magic or a
    file shorter than its header or than the payload the sizes declare."""
    with open(path, "rb") as fh:
        raw = fh.read()
    head = 4 * (dims + 1)
    if len(raw) < head:
        raise InvalidInput(f"{path}: shorter than its {head}-byte IDX header")
    got, *sizes = struct.unpack(f">{dims + 1}I", raw[:head])
    if got != magic:
        raise InvalidInput(f"{path}: bad IDX magic {got}, expected {magic}")
    need = math.prod(sizes)
    if len(raw) - head < need:
        raise InvalidInput(f"{path}: header declares {need} payload bytes, "
                           f"file has {len(raw) - head}")
    return sizes, np.frombuffer(raw, dtype=np.uint8, count=need, offset=head)


def load_idx(images_path, labels_path, num_classes: int | None = None) -> Dataset:
    """Read an IDX image/label file pair (the classic ubyte format).

    Pixels are scaled to [0, 1]. Optional hook for running on real data; the
    synthetic generator needs no files.
    """
    (count, rows, cols), pixels = _read_idx(images_path, 2051, 3)
    (lcount,), labels = _read_idx(labels_path, 2049, 1)
    if count != lcount:
        raise InvalidInput("image/label counts differ")
    if count * rows * cols == 0:
        raise InvalidInput(f"{images_path}: holds no pixels")
    if rows != cols:
        raise InvalidInput("only square images are supported")
    images = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0
    examples = [Example(input=img, label=int(lab)) for img, lab in zip(images, labels)]
    n_cls = num_classes if num_classes is not None else int(labels.max()) + 1
    return Dataset(examples=examples, num_classes=n_cls, input_dim=rows * cols, side=rows)
