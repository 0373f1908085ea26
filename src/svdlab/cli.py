"""Command-line front end: train, attack, and sweep experiments.

Configs are single JSON files mapped 1:1 onto the config dataclasses, with
unknown keys rejected so parameter typos fail loudly. Results are CSV files
(for attacks, a metric table plus each victim's truth and reconstruction
pixels) under the requested output directory, and identical config + seed
reproduces byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field, replace

import numpy as np

from . import attack as attack_mod
from . import defense as defense_mod
from . import flsim, metrics, schema, tinynn
from .errors import InvalidConfig, InvalidInput, NumericalFailure, numerical_failure

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

SWEEP_AXES = ("beta", "rho", "noise_scale", "prune_rate")


@dataclass(frozen=True)
class AttackHarnessConfig:
    """How the attack evaluation samples victims.

    Each victim update is the gradient of a small batch: the target example
    plus companions with distinct labels. batch_size 1 is the single-example
    setting, where low-rank truncation is lossless and one division W_j / b_j
    returns the input with no optimizer (every baseline defense leaks less);
    sizes 2-4 give the gradients genuine rank for the defenses to act on.
    `restarts` runs the optimizer from that many start points at once (see
    attack.run_attack) and keeps the run with the lowest gradient distance.
    """

    batch_size: int = field(default=3, metadata={"ge": 1, "le": 4})
    n_examples: int = field(default=8, metadata={"ge": 1})
    restarts: int = field(default=3, metadata={"ge": 1})


@dataclass(frozen=True)
class ExperimentSpec:
    """A whole config file. The harness shares the JSON `attack` section with
    the attack config; load_spec copies the seed into fl."""

    seed: int = field(default=0, metadata={"ge": 0})
    data: flsim.DataConfig = field(default_factory=flsim.DataConfig)
    fl: flsim.FlConfig = field(default_factory=flsim.FlConfig)
    attack: attack_mod.AttackConfig = field(default_factory=attack_mod.AttackConfig)
    harness: AttackHarnessConfig = field(
        default_factory=AttackHarnessConfig, metadata={"key": "attack"}
    )
    hidden_dims: tuple[int, ...] = field(
        default=(32,), metadata={"key": "model.hidden_dims", "ge": 1}
    )

    def validate(self) -> list[str]:
        """The sections' own rules and the adaptive mode's pairing with a valid
        fl.defense, then the client counts the partitioner can fill: dirichlet
        needs two, and on synthetic data at most one client per training
        example (dirichlet) or per example of a class (rho); then the sizes
        of the arrays that data, model and attacker allocate."""
        errors, fl, d, a, h = schema.check(self), self.fl, self.data, self.attack, self.harness
        if not fl.defense.validate():
            errors += [f"attack.{e}" for e in attack_mod.pairing_errors(a.adaptive, fl.defense)]
        if errors:
            return errors
        least = 2 if fl.partition_scheme == "dirichlet" else 1
        most = (float("inf") if d.idx_images is not None
                else d.per_class * (d.num_classes if least == 2 else 1))
        if not least <= fl.num_clients <= most:
            errors.append(f"fl.num_clients must be in [{least}, {most}] for {fl.partition_scheme}"
                          f" partitioning of this data (got {fl.num_clients})")
        widths = (d.side**2, *self.hidden_dims, d.num_classes)
        draws = a.eot_samples if a.adaptive == "eot" else 1  # eot draws them all at once
        sizes = {"data.num_classes, per_class, per_class_test and side ask for a dataset":
                 d.num_classes * max(d.per_class, d.per_class_test) * d.side**2,
                 "data.side, model.hidden_dims and attack.eot_samples ask for a tensor":
                 max(p * q for p, q in zip(widths, widths[1:])) * draws,
                 "attack.restarts, batch_size, iterations and data.side ask for a restart array":
                 h.restarts * max(h.batch_size * d.side**2, a.iterations)}
        # near 2**60 float64 entries numpy's byte count overflows: a ValueError or a
        # crash. The first such array is named, as data.side feeds all three
        return errors + [f"{what} of {n} entries (at most 2**59 - 1)"
                         for what, n in sizes.items() if n >= 2**59][:1]

    def victim_errors(self) -> list[str]:
        """The victim harness's rules, which only `attack` and `sweep` apply."""
        if self.harness.batch_size > self.data.num_classes:
            return ["attack.batch_size must be <= data.num_classes (distinct labels)"]
        return []


def load_spec(path: str) -> tuple[ExperimentSpec | None, list[str]]:
    """Parse and validate a config file; returns (spec, errors)."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        return None, [f"config file {path} cannot be read: {exc.strerror or exc}"]
    except (ValueError, RecursionError) as exc:  # bad JSON, bytes not UTF-8, nesting too deep
        return None, [f"config file {path} is not valid JSON: {exc}"]
    if not isinstance(raw, dict):
        return None, [f"config file {path} must hold a JSON object"]

    spec, errors = schema.from_json(ExperimentSpec, raw)
    spec = replace(spec, fl=replace(spec.fl, seed=spec.seed))
    errors.extend(spec.validate())
    return spec, errors


def _write_atomic(path: str, data: str | bytes) -> None:
    """Write text or bytes through a temporary file beside `path`, so an
    interrupted run leaves the whole file or none of it."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(value) -> str:
    if isinstance(value, float):
        if np.isnan(value):
            raise NumericalFailure("a result to be written is NaN")
        return repr(value)
    return str(value)


def _csv(rows: list[list], header: list[str]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def run_train(spec: ExperimentSpec, out_dir: str):
    """Train and persist rounds CSV plus the final checkpoint. Returns the
    report list and final model for reuse by sweep."""
    reports, model = flsim.run_experiment(spec.fl, spec.data, spec.hidden_dims)
    rows = [[i, r.accuracy, r.bytes_up, r.mean_entropy, spec.fl.defense.method]
            for i, r in enumerate(reports)]
    header = ["round", "accuracy", "bytes_up", "mean_entropy", "defense_method"]
    _write_atomic(os.path.join(out_dir, "rounds.csv"), _csv(rows, header))
    _write_atomic(os.path.join(out_dir, "model.bin"), tinynn.model_bytes(model))
    return reports, model


def pick_victim_batches(ds, n_examples: int, batch_size: int, seed: int):
    """Deterministic target examples, each padded with companions carrying
    distinct labels."""
    rng = flsim._rng(seed, flsim._TAG_VICTIMS)
    n, labels = len(ds.y), ds.y
    targets = rng.choice(n, size=min(n_examples, n), replace=False)
    batches = []
    for t in targets:
        batch = [int(t)]
        used = {int(labels[t])}
        for c in rng.permutation(n):
            if len(batch) == batch_size:
                break
            if int(labels[c]) not in used:
                batch.append(int(c))
                used.add(int(labels[c]))
        if len(batch) < batch_size:
            raise InvalidConfig(
                "not enough distinct labels for the requested attack batch size"
            )
        batches.append(batch)
    return batches


def attack_one(model, ds, batch_indices, spec: ExperimentSpec, run_seed: int):
    """Defend one victim batch per the fl defense and attack it; returns the
    per-example metric values and the best attack result."""
    x, labels = ds.x[batch_indices], ds.y[batch_indices]
    with numerical_failure("the model's defended gradient on the victim batch"):
        grads, _ = tinynn.backprop(model, x, np.eye(model.num_classes)[labels])
        packets, _ = defense_mod.defend_update(
            grads, spec.fl.defense, [spec.seed, flsim._TAG_VICTIM_NOISE, run_seed]
        )
    best = attack_mod.run_attack(model, packets, spec.attack, spec.fl.defense, labels,
                                 [spec.seed, flsim._TAG_ATTACK, run_seed], spec.harness.restarts)
    truth, recon = x[0], best.reconstructed_batch[0]
    return (
        metrics.mse(truth, recon),
        metrics.psnr(truth, recon),
        metrics.ssim(truth, recon),
        best,
    )


def run_attack_suite(spec: ExperimentSpec, out_dir: str, model=None, write_images=True):
    """Attack a sampled set of victims; emits the metric CSV and image dumps.

    attack.csv also names each victim's winning restart, best iteration and
    final distance. Returns the (victims, 3) array of their (mse, psnr, ssim).
    """
    train, _, _, built_model = flsim.build_experiment(spec.fl, spec.data, spec.hidden_dims)
    if model is None:
        model = built_model
    elif (model.input_dim, model.num_classes) != (train.x.shape[1], spec.data.num_classes):
        raise InvalidInput(f"checkpoint has input dim {model.input_dim} and {model.num_classes} "
                           f"classes, the data {train.x.shape[1]} and {spec.data.num_classes}")
    batches = pick_victim_batches(train, spec.harness.n_examples, spec.harness.batch_size,
                                  spec.seed)
    rows, csvs = [], {}  # every file's text, so a failure leaves no file
    for i, batch_indices in enumerate(batches):
        m, p, s, best = attack_one(model, train, batch_indices, spec, run_seed=i)
        rows.append([i, spec.fl.defense.method, spec.attack.adaptive, m, p, s,
                     best.restart, best.best_iteration, best.final_distance])
        if write_images:
            grid = np.concatenate([train.x[batch_indices[0]], best.reconstructed_batch[0]])
            csvs[f"images_{i:03d}.csv"] = _csv(grid.reshape(-1, spec.data.side).tolist(),
                                               ["# truth rows, then reconstruction rows"])
    arr = np.array([row[3:6] for row in rows])
    rows.append(["mean", spec.fl.defense.method, spec.attack.adaptive,
                 *(float(np.mean(column)) for column in list(zip(*rows))[3:])])
    csvs["attack.csv"] = _csv(rows, ["example_id", "defense", "attack_mode", "mse", "psnr", "ssim",
                                     "restart", "best_iteration", "final_distance"])
    for name, text in csvs.items():
        _write_atomic(os.path.join(out_dir, name), text)
    return arr


def _apply_axis(spec: ExperimentSpec, axis: str, value: float) -> ExperimentSpec:
    if axis == "rho":
        fl = replace(spec.fl, rho=value, partition_scheme="rho")
    elif axis in SWEEP_AXES:
        fl = replace(spec.fl, defense=replace(spec.fl.defense, **{axis: value}))
    else:
        raise InvalidConfig(f"unknown sweep axis {axis!r}")
    return replace(spec, fl=fl)


def run_sweep(spec: ExperimentSpec, axis: str, values: list[float], out_dir: str):
    """One train + attack per axis value; returns the summary rows."""
    names = [f"{axis}_{value:g}" for value in values]
    clash = sorted({name for name in names if names.count(name) > 1})
    if clash:
        raise InvalidConfig(f"sweep values share a point directory: {', '.join(clash)}")
    points = [_apply_axis(spec, axis, value) for value in values]
    errors = [e for point in points for e in point.validate() + point.victim_errors()]
    if errors:
        raise InvalidConfig("; ".join(errors))
    rows = []
    for value, name, point in zip(values, names, points):
        point_dir = os.path.join(out_dir, name)
        os.makedirs(point_dir, exist_ok=True)
        reports, model = run_train(point, point_dir)
        attack_values = run_attack_suite(point, point_dir, model=model, write_images=False)
        baseline_up = (
            flsim.raw_upload_bytes(model) * point.fl.clients_per_round * point.fl.rounds
        )
        total_up = sum(r.bytes_up for r in reports)
        rows.append(
            [
                axis,
                value,
                reports[-1].accuracy,
                float(np.mean(attack_values[:, 0])),
                metrics.comm_reduction(total_up, baseline_up),
                float(np.mean([r.mean_entropy for r in reports])),
            ]
        )
    header = ["axis", "value", "final_accuracy", "mean_attack_mse",
              "comm_reduction_pct", "mean_entropy"]
    _write_atomic(os.path.join(out_dir, "sweep.csv"), _csv(rows, header))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="svdlab",
        description="Federated-learning gradient defense / inversion laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("train", "run a federated training experiment"),
        ("attack", "run gradient inversion attacks against defended updates"),
        ("sweep", "train + attack across one parameter axis"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment JSON file")
        p.add_argument("--out", required=True, help="output directory")
        if name == "attack":
            p.add_argument("--model", default=None, help="checkpoint to attack (default: fresh init)")
        if name == "sweep":
            p.add_argument("--axis", required=True, choices=SWEEP_AXES)
            p.add_argument("--values", required=True, help="comma-separated values")
    args = parser.parse_args(argv)

    spec, errors = load_spec(args.config)
    if not errors and args.command != "train":
        errors = spec.victim_errors()
    for line in errors:
        print(f"config error: {line}", file=sys.stderr)
    if errors:
        return EXIT_CONFIG
    try:
        os.makedirs(args.out, exist_ok=True)
        if args.command == "train":
            run_train(spec, args.out)
        elif args.command == "attack":
            model = tinynn.load_model(args.model) if args.model else None
            run_attack_suite(spec, args.out, model=model)
        else:
            try:
                values = [float(v) for v in args.values.split(",") if v.strip() != ""]
            except ValueError:
                raise InvalidConfig(f"bad sweep values {args.values!r}") from None
            if not values:
                raise InvalidConfig("empty sweep axis")
            run_sweep(spec, args.axis, values, args.out)
    except (InvalidConfig, MemoryError) as exc:  # numpy names the allocation it refused
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InvalidInput, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    from svdlab import cli  # the schema resolves annotations in svdlab.cli's globals
    sys.exit(cli.main())
