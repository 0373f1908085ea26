"""The four benchmark workloads: generated configs, one operation each, and
the checks on every operation's output.

An operation is one FL training episode (a fresh experiment of ROUNDS rounds,
run by `flsim.run_experiment`) on the train-* workloads, and one attacked
victim batch (`cli.attack_one`) on the attack-* workloads. Every operation
gets its own seed derived from the workload seed, so the same seed gives the
same inputs and operation i is the same work on every commit.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from svdlab import cli, defense, flsim

# FL rounds per training episode. At 3 rounds the undefended control has not
# saturated (its mean test accuracy over seeds is about 0.98, not 1.0), so
# final_accuracy still moves if a change alters training. Short episodes
# also mean many independent experiments per run: SVD cost varies by about
# 30% between experiments, and averaging over many keeps ops_per_s steady.
ROUNDS = 3
# Victims drawn from one generated experiment before the next one is built.
VICTIMS_PER_BLOCK = 16


@dataclass(frozen=True)
class Workload:
    kind: str  # "train" | "attack"
    config: dict  # deltas from the README default config
    guard_ops: int  # the first operations of every run; guards use these
    trace_ops: int  # fixed work of the traced run
    # Operations per second of a --trace 0 run (calibration included) on the
    # reference machine (2-vCPU x86-64 VM, see README.md). A run does
    # round(seconds * run_rate) operations: a fixed amount of work for a
    # seed, so two runs of one seed attempt, and fail, the same operations.
    run_rate: float


WORKLOADS = {
    "train-svdefense": Workload(
        "train",
        {"fl": {"rounds": ROUNDS, "defense": {"method": "svdefense"}}},
        guard_ops=8,
        trace_ops=24,
        run_rate=2.75,
    ),
    "train-dgp": Workload(
        "train",
        {"fl": {"rounds": ROUNDS, "defense": {"method": "dgp"}}},
        guard_ops=8,
        trace_ops=500,
        run_rate=50.0,
    ),
    "attack-plain": Workload(
        "attack",
        {
            "fl": {"defense": {"method": "none"}},
            "attack": {"adaptive": "none", "distance": "l2", "batch_size": 3,
                       "n_examples": VICTIMS_PER_BLOCK},
        },
        guard_ops=4,
        trace_ops=10,
        run_rate=1.2,
    ),
    "attack-replay": Workload(
        "attack",
        {
            "fl": {"defense": {"method": "svdefense"}},
            "attack": {"adaptive": "defense_replay", "distance": "neg_cosine_layerwise",
                       "batch_size": 3, "n_examples": VICTIMS_PER_BLOCK},
        },
        guard_ops=3,
        trace_ops=3,
        run_rate=0.35,
    ),
}

# Tiny sizes for the harness self-check.
SMOKE_CONFIG = {"fl": {"rounds": 2}, "attack": {"iterations": 10, "restarts": 1}}


def op_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def _merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, value in extra.items():
        out[key] = _merge(out.get(key, {}), value) if isinstance(value, dict) else value
    return out


def _finite(a) -> bool:
    return bool(np.all(np.isfinite(a)))


class Runner:
    """Runs operation i of one workload for one seed.

    `run(i)` returns a record: seconds (program time only), units (FL rounds
    or victims), attack iterations, guard values, an output digest, and the
    list of failed checks. Config loading and checks run inside `pause()`, so
    a tracer does not count them.
    """

    def __init__(self, name: str, seed: int, cfg_path: str, smoke: bool = False, pause=None):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.cfg_path = cfg_path
        self.config = _merge(self.workload.config, SMOKE_CONFIG) if smoke else self.workload.config
        self.pause = pause
        self.block = None
        # Capture the packets every defended upload produces, to recount bytes.
        self.captured: list[list] = []
        original = defense.defend_update

        def capture(*args, **kwargs):
            out = original(*args, **kwargs)
            self.captured.append(out[0])
            return out

        defense.defend_update = capture

    def _spec(self, seed: int):
        with open(self.cfg_path, "w") as fh:
            json.dump(_merge(self.config, {"seed": seed}), fh)
        spec, errors = self._quiet(lambda: cli.load_spec(self.cfg_path))
        if errors:
            raise ValueError("; ".join(errors))
        return spec

    def prepare(self) -> None:
        """Set-up until the first operation is ready: build the experiment,
        and for attack workloads pick the victims."""
        if self.workload.kind == "train":
            spec = self._spec(op_seed(self.seed, 0))
            flsim.build_experiment(spec.fl, spec.data, spec.hidden_dims)
        else:
            self._load_block(0, self._spec(op_seed(self.seed, 0)))

    def run(self, i: int) -> dict:
        if self.workload.kind == "train":
            return self._train(i)
        return self._attack(i)

    def _quiet(self, fn):
        """Harness work (config loading, output checks): not traced."""
        if self.pause is None:
            return fn()
        with self.pause():
            return fn()

    def _train(self, i: int) -> dict:
        spec = self._spec(op_seed(self.seed, i))
        self.captured.clear()
        t0 = time.perf_counter()
        reports, model = flsim.run_experiment(spec.fl, spec.data, spec.hidden_dims)
        seconds = time.perf_counter() - t0

        def check():
            failures = []
            params = [a for layer in model.layers for a in (layer.weight, layer.bias)]
            if not all(_finite(a) for a in params):
                failures.append("final parameters are not finite")
            per_round = spec.fl.clients_per_round
            if len(reports) != spec.fl.rounds or len(self.captured) != spec.fl.rounds * per_round:
                failures.append("round or upload count differs from the config")
                return failures
            for r, report in enumerate(reports):
                uploads = self.captured[r * per_round : (r + 1) * per_round]
                counted = sum(defense.packet_bytes(p) for packets in uploads for p in packets)
                if counted != report.bytes_up:
                    failures.append(f"round {r}: reported {report.bytes_up} upload bytes, "
                                    f"packets hold {counted}")
            return failures

        failures = self._quiet(check)
        digest = hashlib.sha256()
        for report in reports:
            digest.update(f"{report.accuracy!r},{report.bytes_up};".encode())
        for layer in model.layers:
            digest.update(layer.weight.tobytes() + layer.bias.tobytes())
        return {
            "seconds": seconds,
            "units": len(reports),
            "iters": 0,
            "guard": {
                "final_accuracy": reports[-1].accuracy,
                "bytes_up_per_op": float(np.mean([r.bytes_up for r in reports])),
            },
            "digest": digest.hexdigest(),
            "failures": failures,
        }

    def _load_block(self, block: int, spec) -> None:
        train, _, _, model = flsim.build_experiment(spec.fl, spec.data, spec.hidden_dims)
        batches = cli.pick_victim_batches(
            train, spec.harness.n_examples, spec.harness.batch_size, spec.seed
        )
        self.block = (block, spec, train, model, batches)

    def _attack(self, i: int) -> dict:
        block, j = divmod(i, VICTIMS_PER_BLOCK)
        spec = None
        if self.block is None or self.block[0] != block:
            spec = self._spec(op_seed(self.seed, block))
        self.captured.clear()
        t0 = time.perf_counter()
        if spec is not None:
            self._load_block(block, spec)
        _, spec, train, model, batches = self.block
        mse, _, _, best = cli.attack_one(model, train, batches[j], spec, run_seed=j)
        seconds = time.perf_counter() - t0

        recon = best.reconstructed_batch

        upload = 0

        def check():
            nonlocal upload
            failures = []
            if not _finite(recon) or recon.min() < 0.0 or recon.max() > 1.0:
                failures.append("reconstruction is not finite or leaves [0, 1]")
            if not math.isfinite(mse):
                failures.append("attack MSE is not finite")
            if len(self.captured) != 1:
                failures.append(f"expected one defended upload, saw {len(self.captured)}")
            else:
                upload = sum(defense.packet_bytes(p) for p in self.captured[0])
            return failures

        failures = self._quiet(check)
        digest = hashlib.sha256(recon.tobytes())
        digest.update(f"{mse!r},{best.final_distance!r},{best.best_iteration},{upload}".encode())
        return {
            "seconds": seconds,
            "units": 1,
            "iters": spec.harness.restarts * spec.attack.iterations,
            "guard": {"attack_mse": mse, "bytes_up_per_op": float(upload)},
            "digest": digest.hexdigest(),
            "failures": failures,
        }
