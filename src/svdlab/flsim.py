"""Round-based federated averaging with pluggable gradient defenses.

Clients train on private shards of a synthetic dataset, defend their
accumulated update (global minus local parameters), and ship per-tensor
packets. The server reassembles the packets, weights clients per tensor, and
applies the aggregated update. Everything is seed-deterministic: client
sampling, local batch order, and any defense randomness derive from the
experiment seed through fixed-purpose seed sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import data as data_mod
from . import defense as defense_mod
from . import schema, tinynn
from .errors import InvalidConfig, InvalidInput, numerical_failure
from .tinynn import ModelParams

# seed-sequence purpose tags
_TAG_TRAIN_DATA = 0
_TAG_TEST_DATA = 1
_TAG_MODEL = 2
_TAG_PARTITION = 3
_TAG_SAMPLING = 4
_TAG_CLIENT_BATCHES = 5
_TAG_DEFENSE_NOISE = 6
_TAG_VICTIMS = 7  # cli.pick_victim_batches
_TAG_VICTIM_NOISE = 8  # cli.attack_one
_TAG_ATTACK = 9  # cli.attack_one: attack.run_attack's restart streams


_AT_LEAST_1 = {"ge": 1}


@dataclass(frozen=True)
class DataConfig:
    num_classes: int = field(default=4, metadata={"ge": 2})
    per_class: int = field(default=40, metadata=_AT_LEAST_1)
    per_class_test: int = field(default=10, metadata=_AT_LEAST_1)
    side: int = field(default=8, metadata={"ge": 4})
    # optional external dataset (IDX image/label pair) instead of synthetic
    idx_images: str | None = None
    idx_labels: str | None = None

    def validate(self) -> list[str]:
        errors = schema.check(self)
        if not errors and (self.idx_images is None) != (self.idx_labels is None):
            errors.append("idx_images and idx_labels must be set together")
        most = len(data_mod._TEMPLATE_PARAMS)
        if not errors and self.idx_images is None and self.num_classes > most:
            errors.append(f"num_classes must be <= {most} for synthetic data")
        return errors


@dataclass(frozen=True)
class FlConfig:
    num_clients: int = field(default=8, metadata=_AT_LEAST_1)
    clients_per_round: int = field(default=4, metadata=_AT_LEAST_1)
    rounds: int = field(default=10, metadata=_AT_LEAST_1)
    local_epochs: int = field(default=1, metadata=_AT_LEAST_1)
    local_batch_size: int = field(default=8, metadata=_AT_LEAST_1)
    local_lr: float = field(default=0.5, metadata={"gt": 0})
    partition_scheme: str = field(default="dirichlet", metadata={"choices": ("dirichlet", "rho")})
    dirichlet_alpha: float = field(default=0.5, metadata={"gt": 0})
    rho: float = field(default=1.0, metadata={"gt": 0, "le": 1})
    defense: defense_mod.DefenseConfig = field(default_factory=defense_mod.DefenseConfig)
    seed: int = field(default=0, metadata={"derived": "seed"})

    def validate(self) -> list[str]:
        errors = schema.check(self)
        if not errors and self.clients_per_round > self.num_clients:
            errors.append("clients_per_round must be <= num_clients")
        return errors


@dataclass
class ClientUpdate:
    client_id: int
    sample_count: int
    packets: list[defense_mod.DefensePacket]


@dataclass
class RoundReport:
    accuracy: float
    mean_entropy: float
    bytes_up: int
    aggregation_weights: dict
    selected_clients: list[int]


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng([seed, *path])


def client_round(
    global_params: ModelParams,
    ds: data_mod.Dataset,
    shard: list[int],
    cfg: FlConfig,
    client_id: int,
    round_index: int,
    dgp_residual: list | None = None,
):
    """One client's local training plus defense.

    The uploaded quantity is the accumulated update (global minus trained
    local parameters); with one epoch, one batch covering the shard, it
    equals lr times the raw gradient. Returns (ClientUpdate, new_residual).
    """
    if not shard:
        raise InvalidInput("client shard is empty")
    local, rows = global_params, np.asarray(shard)  # sgd_step is pure: no copy
    labels = ds.y[rows]
    if labels.min() < 0 or labels.max() >= global_params.num_classes:
        raise InvalidInput(f"client {client_id} holds a label outside the model's classes")
    targets = np.eye(global_params.num_classes)[labels]
    batch_rng = _rng(cfg.seed, _TAG_CLIENT_BATCHES, round_index, client_id)
    noise_seed = [cfg.seed, _TAG_DEFENSE_NOISE, round_index, client_id]
    with numerical_failure(f"client {client_id} diverged in round {round_index}: its update"):
        for _ in range(cfg.local_epochs):
            order = batch_rng.permutation(len(shard))
            for start in range(0, len(shard), cfg.local_batch_size):
                batch = order[start : start + cfg.local_batch_size]
                grads, _ = tinynn.backprop(local, ds.x[rows[batch]], targets[batch])
                local = tinynn.sgd_step(local, grads, cfg.local_lr)
        update = [g - l for g, l in zip(global_params.tensors(), local.tensors())]
        packets, new_residual = defense_mod.defend_update(update, cfg.defense, noise_seed,
                                                          residual=dgp_residual)
    return ClientUpdate(client_id, len(shard), packets), new_residual


def aggregation_weights(updates: list[ClientUpdate], tensor_id: int) -> np.ndarray:
    """Per-client weights for one tensor, summing to 1: entropy times sample
    count, or counts alone when every entropy is 0, as for a raw tensor (a
    bias, an undefended run): the run's defense fixes each tensor's kind."""
    if not updates:
        raise InvalidInput("no updates to aggregate")
    packets = [u.packets[tensor_id] for u in updates]
    counts = np.array([float(u.sample_count) for u in updates])
    mass = np.array([p.entropy for p in packets]) * counts
    return mass / mass.sum() if mass.sum() > 0.0 else counts / counts.sum()


def aggregate(global_params: ModelParams, updates: list[ClientUpdate]) -> tuple[ModelParams, dict]:
    """Decode every upload (defense.packets_to_gradset), weight the clients
    per tensor (aggregation_weights) and step the global parameters by the
    weighted sum (tinynn.sgd_step, learning rate 1), folding clients in
    ascending id order so the result does not depend on arrival order.
    Returns (new params, {tensor id: client weights})."""
    updates = sorted(updates, key=lambda u: u.client_id)
    grads = [defense_mod.packets_to_gradset(u.packets, global_params) for u in updates]
    weights = {tid: aggregation_weights(updates, tid)
               for tid in range(len(global_params.tensors()))}
    step = [sum(w * g[tid] for w, g in zip(weights[tid], grads)) for tid in weights]
    return tinynn.sgd_step(global_params, step, 1.0), weights


def _split_idx_dataset(ds: data_mod.Dataset, per_class_test: int):
    """Hold out the first per_class_test examples of each class for testing."""
    held = np.zeros(len(ds.y), dtype=bool)
    for idxs in data_mod._class_indices(ds):
        held[idxs[:per_class_test]] = True
    if held.all() or not held.any():
        raise InvalidConfig("IDX dataset too small for the requested test split")
    return (data_mod.Dataset(ds.x[~held], ds.y[~held], ds.num_classes),
            data_mod.Dataset(ds.x[held], ds.y[held], ds.num_classes))


def build_experiment(fl: FlConfig, data_cfg: DataConfig, hidden_dims=(32,)):
    """Deterministic dataset / partition / model setup shared by the CLI and
    tests. Returns (train_ds, test_ds, client shards, model)."""
    if data_cfg.idx_images is not None:
        loaded = data_mod.load_idx(data_cfg.idx_images, data_cfg.idx_labels,
                                   data_cfg.num_classes, data_cfg.side)
        train, test = _split_idx_dataset(loaded, data_cfg.per_class_test)
    else:
        train_seed = int(_rng(fl.seed, _TAG_TRAIN_DATA).integers(2**31))
        test_seed = int(_rng(fl.seed, _TAG_TEST_DATA).integers(2**31))
        train = data_mod.make_synthetic(
            data_cfg.num_classes, data_cfg.per_class, data_cfg.side, seed=train_seed
        )
        test = data_mod.make_synthetic(
            data_cfg.num_classes, data_cfg.per_class_test, data_cfg.side, seed=test_seed
        )
    part_seed = int(_rng(fl.seed, _TAG_PARTITION).integers(2**31))
    if fl.partition_scheme == "dirichlet":
        shards = data_mod.partition_dirichlet(train, fl.num_clients, fl.dirichlet_alpha, part_seed)
    else:
        shards = data_mod.partition_rho_clients(train, fl.num_clients, fl.rho, part_seed)
    model_seed = np.random.SeedSequence([fl.seed, _TAG_MODEL])
    model = tinynn.init_model(
        data_cfg.side**2, list(hidden_dims), data_cfg.num_classes, seed=model_seed
    )
    return train, test, shards, model


def run_experiment(fl: FlConfig, data_cfg: DataConfig, hidden_dims=(32,)):
    """Full training run. Returns (reports, final_model)."""
    errors = fl.validate() + data_cfg.validate()
    if errors:
        raise InvalidConfig("; ".join(errors))
    train, test, shards, model = build_experiment(fl, data_cfg, hidden_dims)
    dgp_residuals: dict[int, list | None] = {}
    reports = []
    for rnd in range(fl.rounds):
        sampler = _rng(fl.seed, _TAG_SAMPLING, rnd)
        selected = sorted(
            int(c)
            for c in sampler.choice(fl.num_clients, size=fl.clients_per_round, replace=False)
        )
        updates = []
        bytes_up = 0
        entropies = []  # each selected client's mean svd entropy, in `selected` order
        for cid in selected:
            update, dgp_residuals[cid] = client_round(
                model, train, shards[cid], fl, cid, rnd,
                dgp_residuals.get(cid),
            )
            # the server counts and parses the bytes on the wire
            blobs = [defense_mod.serialize_packet(p) for p in update.packets]
            bytes_up += sum(len(b) for b in blobs)
            update.packets = [defense_mod.deserialize_packet(b, t.shape, fl.defense)
                              for b, t in zip(blobs, model.tensors(), strict=True)]
            updates.append(update)
            svd_entropies = [p.entropy for p in update.packets if p.values is None]
            entropies.append(float(np.mean(svd_entropies)) if svd_entropies else 0.0)
        with numerical_failure(f"the aggregate of round {rnd}"):
            model, weights = aggregate(model, updates)
        reports.append(
            RoundReport(
                accuracy=tinynn.accuracy(model, test.x, test.y),
                mean_entropy=float(np.mean(entropies)),
                bytes_up=bytes_up,
                aggregation_weights={tid: w.tolist() for tid, w in weights.items()},
                selected_clients=selected,
            )
        )
    return reports, model


def raw_upload_bytes(params: ModelParams) -> int:
    """Upload size of one update of `params`' shapes with every value
    stored: the bytes of a raw packet of every tensor with no zero values.
    This is the FedAvg baseline for communication accounting; unlike a
    serialized update, it does not depend on how many values are zero."""
    return sum(defense_mod.packet_bytes(defense_mod.DefensePacket(values=np.ones_like(t)))
               for t in params.tensors())
