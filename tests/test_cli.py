"""Command-line behavior: config validation, outputs, determinism."""

import itertools
import json
import math
import os
import platform
import re
import struct
import subprocess
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from oracles import checkpoint_blob
from svdlab import cli, flsim, metrics, schema, tinynn
from svdlab.attack import DISTANCES, AttackConfig
from svdlab.defense import DefenseConfig
from svdlab.errors import InvalidConfig
from svdlab.flsim import DataConfig, FlConfig

BASE_CONFIG = {
    "seed": 3,
    "data": {"num_classes": 4, "per_class": 20, "per_class_test": 5, "side": 8},
    "fl": {
        "num_clients": 4,
        "clients_per_round": 2,
        "rounds": 3,
        "local_batch_size": 8,
        "local_lr": 0.5,
        "defense": {"method": "none"},
    },
    "attack": {
        "distance": "neg_cosine_layerwise",
        "iterations": 60,
        "lr": 0.1,
        "batch_size": 3,
        "n_examples": 2,
        "restarts": 1,
    },
}


def write_config(tmp_path, overrides=None, name="cfg.json"):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for path, value in (overrides or {}).items():
        node = cfg
        keys = path.split(".")
        for key in keys[:-1]:
            node = node.setdefault(key, {})
        node[keys[-1]] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfigHandling:
    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = cli.main(["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert rc == 2
        assert "nope.json" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, b"\xff\xfe{}", b"{\"seed\": 1,}"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        rc = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and str(path) in err

    @pytest.mark.parametrize("where", ["top", "fl.rounds"])
    def test_deeply_nested_config_exits_2(self, tmp_path, capsys, where):
        # json.load raises RecursionError from about 990 levels on
        deep = "[" * 2000 + "]" * 2000
        path = tmp_path / "cfg.json"
        path.write_text(deep if where == "top" else '{"fl": {"rounds": %s}}' % deep)
        rc = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(lines) == 1 and lines[0].startswith("config error: ")
        assert "not valid JSON" in lines[0]

    def test_unknown_keys_listed(self, tmp_path, capsys):
        path = write_config(tmp_path, {"fl.typo_key": 1, "banana": 2})
        rc = cli.main(["train", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "fl.typo_key" in err
        assert "banana" in err

    def test_invalid_values_listed_per_line(self, tmp_path, capsys):
        path = write_config(tmp_path, {"fl.rounds": 0, "fl.local_lr": -1})
        rc = cli.main(["train", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        err_lines = [l for l in capsys.readouterr().err.splitlines() if l]
        assert len(err_lines) >= 2

    @pytest.mark.parametrize("command", [["train"], ["attack"],
                                         ["sweep", "--axis", "beta", "--values", "0.3"]])
    @pytest.mark.parametrize("adaptive, method", [("eot", "svdefense"), ("eot", "none"),
                                                  ("defense_replay", "dp_gauss")])
    def test_adaptive_mode_needs_its_defense(self, tmp_path, capsys, command, adaptive, method):
        # rejected before any work: no output directory, no sweep point
        path = write_config(tmp_path, {"fl.defense.method": method, "attack.adaptive": adaptive})
        rc = cli.main([*command, "--config", path, "--out", str(tmp_path / "o")])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(lines) == 1 and lines[0].startswith(f"config error: attack.adaptive '{adaptive}'")
        assert not (tmp_path / "o").exists()

    def test_environment_does_not_change_the_run(self, tmp_path, monkeypatch):
        # the config file alone sets the seed
        path = write_config(tmp_path)
        assert cli.main(["train", "--config", path, "--out", str(tmp_path / "a")]) == 0
        monkeypatch.setenv("SVDLAB_SEED", "99")
        assert cli.main(["train", "--config", path, "--out", str(tmp_path / "b")]) == 0
        for name in ("rounds.csv", "model.bin"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestConfigSchema:
    # (overrides, the key the one error line must name)
    BAD = {
        "beta_str": ({"fl.defense.beta": "x"}, "fl.defense.beta"),
        "beta_nan": ({"fl.defense.beta": float("nan")}, "fl.defense.beta"),
        "beta_huge_int": ({"fl.defense.beta": 10**400}, "fl.defense.beta"),
        "rounds_float": ({"fl.rounds": 1.5}, "fl.rounds"),
        "side_float": ({"data.side": 4.0}, "data.side"),
        "hidden_bool": ({"model.hidden_dims": [True]}, "model.hidden_dims"),
        "hidden_empty": ({"model.hidden_dims": []}, "model.hidden_dims"),
        "seed_bool": ({"seed": True}, "seed"),
        "seed_negative": ({"seed": -1}, "seed"),
        "iterations_bool": ({"attack.iterations": True}, "attack.iterations"),
        "method_unknown": ({"fl.defense.method": "svd"}, "fl.defense.method"),
        "method_number": ({"fl.defense.method": 3}, "fl.defense.method"),
        "rate_range": ({"fl.defense.prune_rate": 1.0}, "fl.defense.prune_rate"),
        "batch_range": ({"attack.batch_size": 5}, "attack.batch_size"),
        "idx_number": ({"data.idx_images": 7, "data.idx_labels": "l.idx"}, "data.idx_images"),
        "fl_seed": ({"fl.seed": 1}, "fl.seed"),
        "defense_seed": ({"fl.defense.seed": 1}, "fl.defense.seed"),
        "attack_seed": ({"attack.seed": 1}, "attack.seed"),
        "attack_defense": ({"attack.defense": {"method": "none"}}, "attack.defense"),
        "defend_bias_removed": ({"fl.defense.defend_bias": "raw"}, "fl.defense.defend_bias"),
        "entropy_source_removed": ({"fl.defense.entropy_source": "weighted"},
                                   "fl.defense.entropy_source"),
        "tv_weight_removed": ({"attack.tv_weight": 0.0}, "attack.tv_weight"),
        "inferred_removed": ({"attack.label_mode": "inferred"}, "attack.label_mode"),
        "label_mode_removed": ({"attack.label_mode": "known"}, "attack.label_mode"),
        "section_not_object": ({"fl.defense": "svdefense"}, "fl.defense"),
        "model_not_object": ({"model": [32]}, "model"),
        "unknown_nested": ({"model.depth": 2}, "model.depth"),
        "cross_field_clients": ({"fl.clients_per_round": 5}, "fl.clients_per_round"),
        "cross_field_dgp": (
            {"fl.defense.dgp_small_rate": 0.6, "fl.defense.dgp_large_rate": 0.5},
            "fl.defense.dgp_small_rate",
        ),
        "synthetic_classes": ({"data.num_classes": 13}, "data.num_classes"),
        # the partitioner's client counts on 4 classes x 20 training examples
        "dirichlet_one_client": ({"fl.num_clients": 1, "fl.clients_per_round": 1},
                                 "fl.num_clients"),
        "dirichlet_over_examples": ({"fl.num_clients": 81}, "fl.num_clients"),
        "rho_over_per_class": ({"fl.partition_scheme": "rho", "fl.num_clients": 21},
                               "fl.num_clients"),
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_bad_value_is_one_line_exit_2(self, tmp_path, capsys, case):
        overrides, key = self.BAD[case]
        path = write_config(tmp_path, overrides)
        rc = cli.main(["train", "--config", path, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"config error: {key} ")
        assert not (tmp_path / "o").exists()

    def test_rho_sweep_checks_the_client_count(self, tmp_path, capsys):
        # 21 clients can split 80 examples by dirichlet, but not 20 per class
        # by rho: the axis's points are refused before any point runs
        path = write_config(tmp_path, {"fl.num_clients": 21})
        out = tmp_path / "o"
        rc = cli.main(["sweep", "--config", path, "--axis", "rho", "--values", "0.5",
                       "--out", str(out)])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(lines) == 1 and lines[0].startswith("config error: fl.num_clients ")
        assert os.listdir(out) == []

    @pytest.mark.parametrize("command", ["attack", "sweep"])
    def test_victim_rule_is_one_line_exit_2(self, tmp_path, capsys, command):
        # attack.batch_size <= data.num_classes is the victim harness's rule
        path = write_config(tmp_path, {"data.num_classes": 2})
        extra = ["--axis", "beta", "--values", "0.2"] if command == "sweep" else []
        rc = cli.main([command, "--config", path, "--out", str(tmp_path / "o"), *extra])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("config error: attack.batch_size ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("overrides", [{"data.num_classes": 2}], ids=["batch_over_classes"])
    def test_train_picks_no_victims(self, tmp_path, capsys, overrides):
        # the victim harness's rules do not apply to training
        path = write_config(tmp_path, overrides)
        assert cli.main(["train", "--config", path, "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "o" / "rounds.csv").exists()

    def test_dotted_top_level_key_is_unknown(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"fl.rounds": 2}))
        assert cli.load_spec(str(path))[1] == ["fl.rounds is not a known key"]

    def test_readme_and_base_config_load_unchanged(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
        (tmp_path / "readme.json").write_text(block)
        spec, errors = cli.load_spec(str(tmp_path / "readme.json"))
        assert errors == []
        assert spec == cli.ExperimentSpec()

        def leaves(node, where=()):
            return {path for key, value in node.items()
                    for path in (leaves(value, where + (key,)) if isinstance(value, dict)
                                 else [where + (key,)])}
        # the README names every settable key, not only keys that still exist
        settable = {path for path, kind in schema._layout(cli.ExperimentSpec).items()
                    if kind == "leaf"}
        assert leaves(json.loads(block)) == settable and len(settable) == 31

        spec, errors = cli.load_spec(write_config(tmp_path))
        assert errors == []
        assert spec == cli.ExperimentSpec(
            seed=3,
            data=DataConfig(num_classes=4, per_class=20, per_class_test=5, side=8),
            fl=FlConfig(num_clients=4, clients_per_round=2, rounds=3, local_batch_size=8,
                        local_lr=0.5, defense=DefenseConfig(method="none"), seed=3),
            attack=AttackConfig(distance="neg_cosine_layerwise", iterations=60, lr=0.1),
            harness=cli.AttackHarnessConfig(batch_size=3, n_examples=2, restarts=1),
            hidden_dims=(32,),
        )

    def test_readme_notes_name_every_choice(self):
        def choice_fields(cls, section=None):
            for f in fields(cls):
                tp = schema._hints(cls)[f.name]
                if "derived" in f.metadata:
                    continue
                if is_dataclass(tp):
                    yield from choice_fields(tp, schema._key(f)[-1])
                elif "choices" in f.metadata:
                    yield f"{section}.{f.name}", f.metadata["choices"]
        # the Notes bullet "- `<section>.<name>`: ..." names the field's
        # choices, in order, before its first ". " or "; " (asides dropped)
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        bullets = dict(b.split(": ", 1) for b in readme.split("\n- ")[1:] if ": " in b)
        found = dict(choice_fields(cli.ExperimentSpec))
        assert len(found) == 4
        for key, choices in found.items():
            head = re.split(r"\. |; ", re.sub(r"\([^)]*\)", "", bullets[f"`{key}`"]))[0]
            assert tuple(re.findall(r"`([^`]+)`", head)) == choices, key

    def test_config_holding_a_list_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("[]")
        rc = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"config error: config file {path} must hold a JSON object\n"

    def test_sweep_values_that_are_not_numbers_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path)
        rc = cli.main(["sweep", "--config", path, "--axis", "beta", "--values", "a,b",
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == "config error: bad sweep values 'a,b'\n"
        assert os.listdir(tmp_path / "o") == []

    def test_bad_sweep_value_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path)
        rc = cli.main(["sweep", "--config", path, "--axis", "prune_rate", "--values", "0.5,1.5",
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "fl.defense.prune_rate" in capsys.readouterr().err
        assert not (tmp_path / "o" / "prune_rate_0.5").exists()


class TestExitCodes:
    def test_saturated_threshold_keeps_full_rank(self, tmp_path):
        path = write_config(tmp_path, {"fl.defense.method": "svdefense", "fl.defense.beta": 1000})
        assert cli.main(["train", "--config", path, "--out", str(tmp_path / "o")]) == 0

    # each asks numpy for one array far beyond any memory, up front
    @pytest.mark.parametrize("command, overrides", [
        ("attack", {"attack.iterations": 10**13}),
        ("attack", {"fl.defense.method": "dp_gauss", "attack.adaptive": "eot",
                    "attack.eot_samples": 10**13}),
        ("attack", {"attack.restarts": 10**13}),
        ("train", {"model.hidden_dims": [10**11]}),
    ], ids=["iterations", "eot_samples", "restarts", "hidden_dims"])
    def test_unallocatable_config_exits_2(self, tmp_path, capsys, command, overrides):
        path = write_config(tmp_path, overrides)
        rc = cli.main([command, "--config", path, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")
        assert "allocate" in lines[0]

    # numpy would crash (np.repeat's SIGSEGV) or raise on these, so they are
    # probed through load_spec only, never run
    @pytest.mark.parametrize("overrides, keys", [
        ({"data.per_class": 2**62}, "data.num_classes"),
        ({"data.per_class_test": 2**62}, "data.num_classes"),
        ({"data.per_class": 10**30}, "data.num_classes"),
        ({"data.side": 10**30}, "data.num_classes"),
        ({"model.hidden_dims": [10**30]}, "data.side, model.hidden_dims"),
        ({"attack.restarts": 2**62}, "attack.restarts"),
        ({"attack.iterations": 2**62}, "attack.restarts"),
        ({"attack.iterations": 2**59}, "attack.restarts"),
        ({"fl.defense.method": "dp_gauss", "attack.adaptive": "eot",
          "attack.eot_samples": 10**30}, "data.side, model.hidden_dims and attack.eot_samples"),
    ])
    def test_a_config_past_numpy_sizes_is_a_config_error(self, tmp_path, overrides, keys):
        errors = cli.load_spec(write_config(tmp_path, overrides))[1]
        assert len(errors) == 1 and errors[0].startswith(keys) and "2**59" in errors[0]

    def test_the_size_limit_is_2_to_the_59_entries(self, tmp_path):
        # restarts 1: the distance trace holds `iterations` entries
        assert not cli.load_spec(write_config(tmp_path, {"attack.iterations": 2**59 - 1}))[1]
        path = write_config(tmp_path, {"attack.eot_samples": 10**30})
        assert not cli.load_spec(path)[1]  # no eot attacker draws them

    @pytest.mark.parametrize("method", ["none", "svdefense"])
    def test_divergence_exits_3(self, tmp_path, capsys, recwarn, method):
        path = write_config(tmp_path, {"fl.defense.method": method, "fl.local_lr": 1e308})
        rc = cli.main(["train", "--config", path, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 3
        assert "diverged" in err and "Traceback" not in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "o" / "rounds.csv").exists()

    @pytest.mark.parametrize("case", ["missing", "truncated", "input_dim", "trailing", "nan",
                                      "v1_layout"])
    def test_bad_checkpoint_exits_2(self, tmp_path, capsys, case):
        ckpt = tmp_path / "model.bin"
        if case == "v1_layout":  # 64 -> 32 -> 4 with a kind byte and both widths per layer
            ckpt.write_bytes(b"SVDLAB-MODEL-v1\n" + struct.pack("<I", 2)
                             + struct.pack("<BII", 1, 32, 64) + bytes(8 * (32 * 64 + 32))
                             + struct.pack("<BII", 2, 4, 32) + bytes(8 * (4 * 32 + 4)))
        elif case != "missing":
            model = tinynn.init_model(100 if case == "input_dim" else 64, [32], 4)
            if case == "nan":
                model.layers[1].weight[2, 3] = float("nan")
            ckpt.write_bytes(tinynn.model_bytes(model))
        if case == "truncated":
            ckpt.write_bytes(ckpt.read_bytes()[:200])
        if case == "trailing":
            ckpt.write_bytes(ckpt.read_bytes() + bytes(8))
        path = write_config(tmp_path)
        rc = cli.main(["attack", "--config", path, "--out", str(tmp_path / "o"),
                       "--model", str(ckpt)])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(lines) == 1 and lines[0].startswith("input error: ")

    # (widths, a width count written over theirs, a fragment of the error
    # line) of an all-zero checkpoint; model_bytes writes at least two
    # widths, none of them 0, and the count of widths it writes
    LAYER_HEADERS = {
        "zero_width": ([64, 16, 0, 4], None, "[64, 16, 0, 4]"),
        "one_width": ([64], None, "[64]"),
        "count_past_the_file": ([64, 4], 2**32 - 1, "truncated"),
    }

    @pytest.mark.parametrize("case", LAYER_HEADERS)
    def test_bad_layer_header_exits_2(self, tmp_path, capsys, case):
        dims, count, fragment = self.LAYER_HEADERS[case]
        blob = bytearray(checkpoint_blob(dims))
        if count is not None:
            struct.pack_into("<I", blob, len(tinynn.MODEL_MAGIC), count)
        ckpt = tmp_path / "model.bin"
        ckpt.write_bytes(blob)
        path = write_config(tmp_path)
        rc = cli.main(["attack", "--config", path, "--out", str(tmp_path / "o"),
                       "--model", str(ckpt)])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(lines) == 1 and lines[0].startswith("input error: ")
        assert fragment in lines[0]
        assert not (tmp_path / "o" / "attack.csv").exists()

    @pytest.mark.parametrize("classes", [2, 6])
    def test_checkpoint_of_other_class_count_exits_2(self, tmp_path, capsys, classes):
        ckpt = tmp_path / "model.bin"
        ckpt.write_bytes(tinynn.model_bytes(tinynn.init_model(64, [32], classes)))
        path = write_config(tmp_path)
        rc = cli.main(["attack", "--config", path, "--out", str(tmp_path / "o"),
                       "--model", str(ckpt)])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(lines) == 1 and lines[0].startswith("input error: ")
        assert f"{classes} classes, the data 64 and 4" in lines[0]
        assert not (tmp_path / "o" / "attack.csv").exists()

    @staticmethod
    def attack_scaled_checkpoint(tmp_path, scale, overrides):
        model = tinynn.init_model(64, [32], 4, seed=0)
        for layer in model.layers:
            layer.weight *= scale
        ckpt = tmp_path / "tiny.bin"
        ckpt.write_bytes(tinynn.model_bytes(model))
        path = write_config(tmp_path, {"fl.defense.method": "svdefense", "attack.iterations": 5,
                                       **overrides})
        return cli.main(["attack", "--config", path, "--out", str(tmp_path / "o"),
                         "--model", str(ckpt)])

    @pytest.mark.parametrize("adaptive", ["none", "defense_replay"])
    @pytest.mark.parametrize("distance", ["l2", "neg_cosine_layerwise"])
    def test_tiny_checkpoint_attacks_under_svdefense(self, tmp_path, capsys, distance, adaptive):
        # gradients near 1e-160 to 1e-200 square below the smallest double;
        # the scale-free weighting, the SVD, the replay and the cosine
        # distance must still see their norms
        overrides = {"attack.distance": distance, "attack.adaptive": adaptive}
        for scale in (1e-160, 1e-170, 1e-200):
            run = tmp_path / f"{scale:g}"
            run.mkdir()
            assert self.attack_scaled_checkpoint(run, scale, overrides) == 0, scale
            assert capsys.readouterr().err == ""
            assert (run / "o" / "attack.csv").exists() and (run / "o" / "images_000.csv").exists()

    SCALED_DEFENSES = [("none", "none"), ("svdefense", "defense_replay"), ("svdefense", "none"),
                       ("prune", "prune_mask"), ("dp_gauss", "eot"), ("dgp", "prune_mask")]

    def test_scaled_checkpoints_write_everything_or_exit_3(self, tmp_path, capsys):
        # one layer's weights near either end of the double range, under each
        # defense with its adaptive attacker and both distances: a run writes
        # all its outputs, or nothing and one numerical-failure line (an
        # exception or a numpy warning fails the test)
        runs = {}
        for layer, scale in itertools.product((0, 1), (1e-310, 1e-200, 1e200, 1e300)):
            model = tinynn.init_model(64, [32], 4, seed=0)
            model.layers[layer].weight *= scale
            ckpt = tmp_path / f"{layer}_{scale:g}.bin"
            ckpt.write_bytes(tinynn.model_bytes(model))
            for (method, adaptive), distance in itertools.product(self.SCALED_DEFENSES,
                                                                  DISTANCES):
                case = (layer, scale, method, adaptive, distance)
                path = write_config(tmp_path, {
                    "fl.defense.method": method, "attack.adaptive": adaptive,
                    "attack.distance": distance, "attack.iterations": 5,
                    "attack.n_examples": 1, "attack.restarts": 2})
                out = tmp_path / "_".join(map(str, case))
                rc = cli.main(["attack", "--config", path, "--out", str(out),
                               "--model", str(ckpt)])
                lines = capsys.readouterr().err.splitlines()
                runs[case] = rc, lines
                written = sorted(p.name for p in out.iterdir())
                if rc == 0:
                    assert lines == [] and written == ["attack.csv", "images_000.csv"], case
                else:
                    assert rc == 3 and len(lines) == 1 and not written, (case, rc)
                    assert lines[0].startswith("numerical failure: "), case
        assert len(runs) == 96
        # the defense factors every representable update: a svdefense run
        # completes or stops in an attack iteration
        for (_, _, method, _, _), (rc, lines) in runs.items():
            assert method != "svdefense" or rc == 0 or "an attack iteration" in lines[0]
        # output weights near 1e-310 leave the dummy's first-layer vector so
        # small that the cosine's sensitivity 1 / |d| is beyond the doubles
        rc, lines = runs[(1, 1e-310, "none", "none", "neg_cosine_layerwise")]
        assert rc == 3 and "an attack iteration" in lines[0]

    def test_unrepresentable_weighted_update_exits_3(self, tmp_path, capsys):
        # near 1e-323 the gradient's entries are the smallest subnormals,
        # which w g (w <= 1) rounds to zero, so the defense cannot factor it
        assert self.attack_scaled_checkpoint(tmp_path, 1e-323, {}) == 3
        assert capsys.readouterr().err.splitlines() == [
            "numerical failure: all singular values are zero"]
        assert not (tmp_path / "o" / "attack.csv").exists()

    def test_diverging_local_training_exits_3(self, tmp_path, capsys):
        # a step of 1e100 overflows a client's local training before its
        # update reaches the defense
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"fl": {"rounds": 1, "local_lr": 1e100,
                                           "defense": {"method": "svdefense"}}}))
        rc = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 3
        assert len(lines) == 1 and lines[0].startswith("numerical failure: ")
        assert "client" in lines[0] and "diverged in round 0" in lines[0]

    def test_overflowing_eval_exits_3(self, tmp_path, capsys):
        # noise of scale 1e300 aggregates to weights near 1e300, and the
        # server's forward pass over the test set overflows
        path = write_config(tmp_path, {"fl.defense": {"method": "dp_gauss", "noise_scale": 1e300},
                                       "fl.rounds": 1})
        rc = cli.main(["train", "--config", path, "--out", str(tmp_path / "o")])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 3
        assert len(lines) == 1 and lines[0].startswith("numerical failure: ")
        assert not (tmp_path / "o" / "rounds.csv").exists()

    @pytest.mark.parametrize("method", ["dp_gauss", "dp_lap"])
    def test_non_finite_aggregate_exits_3(self, tmp_path, capsys, recwarn, method):
        # noise of scale 1e308 draws infinities of both signs, whose sum over
        # the clients is not a number
        path = write_config(tmp_path, {"fl.defense": {"method": method, "noise_scale": 1e308},
                                       "fl.rounds": 1})
        rc = cli.main(["train", "--config", path, "--out", str(tmp_path / "o")])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 3
        assert len(lines) == 1 and lines[0].startswith("numerical failure: ")
        assert "aggregate of round 0" in lines[0]
        assert not list(recwarn)
        assert not (tmp_path / "o" / "rounds.csv").exists()

    def test_overflowing_victim_pass_exits_3(self, tmp_path, capsys):
        # finite weights near 1e200 overflow the forward pass on the victims
        assert self.attack_scaled_checkpoint(tmp_path, 1e200, {}) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure: ")
        assert not (tmp_path / "o" / "attack.csv").exists()

    @pytest.mark.parametrize("method, distance", [("dp_gauss", "neg_cosine_layerwise"),
                                                  ("dp_lap", "l2")])
    def test_overflowing_victim_noise_exits_3(self, tmp_path, capsys, recwarn, method, distance):
        # noise of scale 1e308 draws infinities into the victim's upload
        path = write_config(tmp_path, {"fl.defense": {"method": method, "noise_scale": 1e308},
                                       "attack.distance": distance, "attack.iterations": 5})
        rc = cli.main(["attack", "--config", path, "--out", str(tmp_path / "o")])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 3
        assert len(lines) == 1 and lines[0].startswith("numerical failure: ")
        assert "upload" in lines[0]
        assert not list(recwarn)
        assert not (tmp_path / "o" / "attack.csv").exists()

    def test_overflowing_attack_step_exits_3(self, tmp_path, capsys):
        # weights near 1e100 give a finite victim gradient, but the l2
        # distance's gradient through the dummy pass overflows
        assert self.attack_scaled_checkpoint(tmp_path, 1e100, {"attack.distance": "l2"}) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure: ")
        assert "an attack iteration" in lines[0]
        assert not (tmp_path / "o" / "attack.csv").exists()

    def test_svd_non_convergence_exits_3(self, tmp_path, capsys, monkeypatch):
        import numpy as np

        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        path = write_config(tmp_path, {"fl.defense.method": "svdefense"})
        rc = cli.main(["train", "--config", path, "--out", str(tmp_path / "o")])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 3
        assert len(lines) == 1 and lines[0].startswith("numerical failure: ")

    def test_replay_svd_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        # the replaying attacker's stacked LAPACK call fails; the defender's
        # 2-D calls do not
        import numpy as np

        svd = np.linalg.svd

        def stacked_fails(a, *args, **kwargs):
            if np.ndim(a) > 2:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", stacked_fails)
        path = write_config(tmp_path, {"fl.defense.method": "svdefense", "attack.iterations": 2,
                                       "attack.adaptive": "defense_replay"})
        rc = cli.main(["attack", "--config", path, "--out", str(tmp_path / "o")])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 3
        assert len(lines) == 1 and lines[0].startswith("numerical failure: ")
        assert "did not converge" in lines[0]

    @pytest.mark.parametrize("command, module, name, value, outputs", [
        ("attack", metrics, "residual_cosine", float("nan"), ["attack.csv"]),
        ("attack", metrics, "residual_cosine", float("inf"), ["attack.csv"]),
        ("train", tinynn, "accuracy", float("nan"), ["rounds.csv", "model.bin"]),
    ], ids=["attack_residual_cos", "attack_residual_cos_inf", "train_accuracy"])
    def test_a_nan_result_exits_3_unwritten(self, tmp_path, capsys, monkeypatch, command,
                                            module, name, value, outputs):
        # no CSV cell may read nan or inf: the writer refuses it before any output
        monkeypatch.setattr(module, name, lambda *args: value)
        path = write_config(tmp_path, {"attack.iterations": 5})
        rc = cli.main([command, "--config", path, "--out", str(tmp_path / "o")])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 3
        assert len(lines) == 1 and lines[0].startswith("numerical failure: ")
        assert not any((tmp_path / "o" / out).exists() for out in outputs)
        assert not list((tmp_path / "o").glob("images_*.csv"))


class TestTrain:
    def test_outputs_and_schema(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", path, "--out", str(out)]) == 0
        lines = (out / "rounds.csv").read_text().splitlines()
        assert lines[0] == "round,accuracy,bytes_up,mean_entropy,defense_method"
        rounds = [line.split(",")[0] for line in lines[1:]]
        assert rounds == [str(r) for r in range(BASE_CONFIG["fl"]["rounds"])]
        assert (out / "model.bin").exists()

    def test_byte_identical_rerun(self, tmp_path):
        path = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["train", "--config", path, "--out", str(out_a)]) == 0
        assert cli.main(["train", "--config", path, "--out", str(out_b)]) == 0
        assert (out_a / "rounds.csv").read_bytes() == (out_b / "rounds.csv").read_bytes()
        assert (out_a / "model.bin").read_bytes() == (out_b / "model.bin").read_bytes()


class TestAttack:
    def test_outputs(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "atk"
        assert cli.main(["attack", "--config", path, "--out", str(out)]) == 0
        lines = (out / "attack.csv").read_text().splitlines()
        assert lines[0] == ("example_id,defense,attack_mode,mse,residual_cos,"
                            "restart,best_iteration,final_distance")
        assert len(lines) == 1 + 2 + 1  # rows + summary
        assert lines[-1].startswith("mean,")
        assert {p.name for p in out.iterdir()} == {"attack.csv", "images_000.csv",
                                                   "images_001.csv"}

    def test_rows_name_the_restart_that_won(self, tmp_path):
        # a victim's last three columns are attack_one's winning restart,
        # best iteration and final distance; the mean row averages them
        path = write_config(tmp_path, {"attack.restarts": 3, "attack.iterations": 10})
        out = tmp_path / "atk"
        assert cli.main(["attack", "--config", path, "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "attack.csv").read_text().splitlines()[1:]]
        spec, _ = cli.load_spec(path)
        train, _, _, model = flsim.build_experiment(spec.fl, spec.data, spec.hidden_dims)
        batches = cli.pick_victim_batches(train, 2, 3, spec.seed)
        wins = [cli.attack_one(model, train, b, spec, run_seed=i)[3] for i, b in enumerate(batches)]
        for row, best in zip(rows, wins):
            assert row[5:] == [str(best.restart), str(best.best_iteration),
                               repr(best.final_distance)]
        assert rows[-1][5:] == [repr(float(np.mean([b.restart for b in wins]))),
                                repr(float(np.mean([b.best_iteration for b in wins]))),
                                repr(float(np.mean([b.final_distance for b in wins])))]

    def test_residual_cos_scores_slot_0_against_its_labels_test_mean(self, tmp_path):
        # the prior is public: the test split's mean image of the target's
        # label, never a training-split image
        path = write_config(tmp_path, {"attack.iterations": 5})
        out = tmp_path / "atk"
        assert cli.main(["attack", "--config", path, "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "attack.csv").read_text().splitlines()[1:]]
        spec, _ = cli.load_spec(path)
        train, test, _, model = flsim.build_experiment(spec.fl, spec.data, spec.hidden_dims)
        batches = cli.pick_victim_batches(train, 2, 3, spec.seed)
        for i, (row, batch) in enumerate(zip(rows, batches)):
            m, truth, label, best = cli.attack_one(model, train, batch, spec, run_seed=i)
            assert truth.tobytes() == train.x[batch[0]].tobytes() and label == train.y[batch[0]]
            prior = test.x[test.y == label].mean(axis=0)
            assert row[3:5] == [repr(m), repr(metrics.residual_cosine(
                truth, best.reconstructed_batch[0], prior))]

    def test_byte_identical_rerun(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["attack", "--config", path, "--out", str(out_a)]) == 0
        assert cli.main(["attack", "--config", path, "--out", str(out_b)]) == 0
        assert (out_a / "attack.csv").read_bytes() == (out_b / "attack.csv").read_bytes()
        assert capsys.readouterr().err == ""

    def test_image_csv(self, tmp_path):
        # a header, the victim's 8 x 8 truth rows, then its reconstruction's
        path = write_config(tmp_path, {"attack.iterations": 5})
        out = tmp_path / "atk"
        assert cli.main(["attack", "--config", path, "--out", str(out)]) == 0
        rows = (out / "images_000.csv").read_text().splitlines()
        assert rows[0] == "# truth rows, then reconstruction rows"
        grid = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
        assert grid.shape == (16, 8) and ((grid >= 0.0) & (grid <= 1.0)).all()
        spec, _ = cli.load_spec(path)
        train = flsim.build_experiment(spec.fl, spec.data, spec.hidden_dims)[0]
        victim = cli.pick_victim_batches(train, 2, 3, spec.seed)[0][0]
        assert grid[:8].tobytes() == train.x[victim].reshape(8, 8).tobytes()

    @pytest.mark.parametrize("side", [4, 6])
    def test_small_and_even_sides(self, tmp_path, side):
        # images of side 4 and of an even side attack and score cleanly
        path = write_config(tmp_path, {"data.side": side, "attack.iterations": 5})
        out = tmp_path / "atk"
        assert cli.main(["attack", "--config", path, "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "attack.csv").read_text().splitlines()[1:]]
        assert all(math.isfinite(float(row[-1])) for row in rows)


class TestSweep:
    def test_unknown_axis_is_refused(self):
        # the CLI's --axis choices stop it first, so the library is called
        with pytest.raises(InvalidConfig, match="unknown sweep axis 'alpha'"):
            cli._apply_axis(cli.ExperimentSpec(), "alpha", 1.0)

    def test_schema_and_rows(self, tmp_path):
        path = write_config(
            tmp_path,
            {"fl.defense.method": "svdefense", "attack.n_examples": 1, "attack.iterations": 30},
        )
        out = tmp_path / "sweep"
        rc = cli.main(
            ["sweep", "--config", path, "--axis", "beta", "--values", "0.1,0.3,0.6",
             "--out", str(out)]
        )
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == ("axis,value,final_accuracy,mean_attack_mse,mean_residual_cos,"
                            "comm_reduction_pct,mean_entropy")
        assert len(lines) == 4
        assert all(line.startswith("beta,") for line in lines[1:])

    def test_a_point_attacks_the_model_it_trained(self, tmp_path):
        # a sweep point at the config's own beta attacks its checkpoint, as
        # `attack --model` on that checkpoint does
        path = write_config(
            tmp_path,
            {"fl.defense.method": "svdefense", "attack.n_examples": 1, "attack.iterations": 30},
        )
        out, atk = tmp_path / "sweep", tmp_path / "atk"
        assert cli.main(["sweep", "--config", path, "--axis", "beta", "--values", "0.3",
                         "--out", str(out)]) == 0
        assert cli.main(["attack", "--config", path, "--model", str(out / "beta_0.3" / "model.bin"),
                         "--out", str(atk)]) == 0
        assert (out / "beta_0.3" / "attack.csv").read_bytes() == (atk / "attack.csv").read_bytes()

    def test_a_replaying_point_replays_its_own_beta(self, tmp_path):
        # the point at beta 3 of a beta 0.3 config attacks as a beta 3
        # config's `attack --model` does, not as the config's own beta would
        overrides = {"fl.defense.method": "svdefense", "attack.adaptive": "defense_replay",
                     "attack.n_examples": 1, "attack.iterations": 30}
        path = write_config(tmp_path, overrides)
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", path, "--axis", "beta", "--values", "3",
                         "--out", str(out)]) == 0
        model = str(out / "beta_3" / "model.bin")
        csvs = {}
        for beta in (3, 0.3):
            cfg = write_config(tmp_path, {**overrides, "fl.defense.beta": beta}, f"b{beta}.json")
            atk = tmp_path / f"atk{beta}"
            assert cli.main(["attack", "--config", cfg, "--model", model, "--out", str(atk)]) == 0
            csvs[beta] = (atk / "attack.csv").read_bytes()
        assert (out / "beta_3" / "attack.csv").read_bytes() == csvs[3] != csvs[0.3]

    def test_empty_axis_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path)
        rc = cli.main(
            ["sweep", "--config", path, "--axis", "beta", "--values", ",", "--out", str(tmp_path / "o")]
        )
        assert rc == 2
        assert "empty sweep axis" in capsys.readouterr().err

    @pytest.mark.parametrize("values", ["0.3,0.3", "0.1,0.1000001"])
    def test_colliding_point_directories_exit_2(self, tmp_path, capsys, values):
        path = write_config(tmp_path)
        out = tmp_path / "o"
        rc = cli.main(["sweep", "--config", path, "--axis", "beta", "--values", values,
                       "--out", str(out)])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(lines) == 1 and lines[0].startswith("config error: ")
        assert os.listdir(out) == []

    def test_rho_axis_switches_partitioner(self, tmp_path):
        path = write_config(tmp_path, {"attack.n_examples": 1, "attack.iterations": 20})
        out = tmp_path / "rho_sweep"
        rc = cli.main(
            ["sweep", "--config", path, "--axis", "rho", "--values", "0.4,1.0", "--out", str(out)]
        )
        assert rc == 0
        assert len((out / "sweep.csv").read_text().splitlines()) == 3


class TestReadmeColumns:
    def test_readme_lists_the_headers_each_command_writes(self, tmp_path):
        path = write_config(tmp_path, {"fl.rounds": 1, "attack.n_examples": 1,
                                       "attack.iterations": 2})
        runs = {"rounds.csv": ["train"], "attack.csv": ["attack"],
                "sweep.csv": ["sweep", "--axis", "beta", "--values", "0.3"]}
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        listed = {name: re.sub(r"\s", "", cols)
                  for name, cols in re.findall(r"`(\w+\.csv)` \(`([^`]+)`", readme)}
        for name, command in runs.items():
            out = tmp_path / name
            assert cli.main([*command, "--config", path, "--out", str(out)]) == 0
            assert listed[name] == (out / name).read_text().splitlines()[0], name


def cli_env(**overrides):
    """This process's environment, with svdlab's source first on PYTHONPATH
    and `overrides` set (None removes a variable), for a fresh interpreter."""
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, **overrides}
    return {k: v for k, v in env.items() if v is not None}


def dynamic_arch_openblas() -> bool:
    """Whether numpy's BLAS is an OpenBLAS that picks its kernel at run time,
    so that OPENBLAS_CORETYPE can force another one."""
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


class TestBlasThreads:
    @pytest.mark.parametrize("distance", DISTANCES)
    def test_outputs_do_not_depend_on_the_thread_count(self, tmp_path, distance):
        # train and attack --model in fresh interpreters under one and two
        # OpenBLAS threads write the same bytes
        path = write_config(tmp_path, {"fl.defense.method": "svdefense", "fl.rounds": 2,
                                       "attack.adaptive": "defense_replay",
                                       "attack.distance": distance, "attack.iterations": 20})
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads_{threads}"
            env = cli_env(OPENBLAS_NUM_THREADS=threads)
            for args in (["train"], ["attack", "--model", str(out / "model.bin")]):
                subprocess.run([sys.executable, "-m", "svdlab.cli", *args, "--config", path,
                                "--out", str(out if args == ["train"] else out / "atk")],
                               env=env, check=True, capture_output=True, timeout=60)
            outputs.append({p.relative_to(out): p.read_bytes()
                            for p in sorted(out.rglob("*")) if p.is_file()})
        assert len(outputs[0]) == 5  # rounds.csv, model.bin, attack.csv, 1 dump per victim
        assert outputs[0] == outputs[1]

    def test_dead_units_store_nothing_under_any_thread_count(self, tmp_path):
        # a default svdefense train in fresh interpreters under one and two
        # OpenBLAS threads: parsed back from its blob, every packet holds
        # +0.0, stored nowhere, in each dead channel's weight and each dead
        # input unit's vt_star column, whatever LAPACK returned there
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"fl": {"defense": {"method": "svdefense"}}}))
        counts = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads_{threads}"
            subprocess.run([sys.executable, "-c", COUNT_DEAD_UNITS, str(tmp_path / threads),
                            "train", "--config", str(path), "--out", str(out)],
                           env=cli_env(OPENBLAS_NUM_THREADS=threads), check=True,
                           capture_output=True, timeout=60)
            counts.append(json.loads((tmp_path / threads).read_text()))
        packets, rows, column_entries, stored = counts[0]
        assert packets == 10 * 4 * 2 and rows > 0 and column_entries > 0 and stored == 0
        assert counts[0] == counts[1]


# argv: the file to write the counts to, then svdlab's own arguments
COUNT_DEAD_UNITS = """
import json, sys
import numpy as np
from svdlab import cli, defense
defend, seen = defense.defend_grad_svd, []
def keep(g, beta):
    seen.append((g.copy(), defend(g, beta)))
    return seen[-1][1]
defense.defend_grad_svd = keep
assert cli.main(sys.argv[2:]) == 0
rows = column_entries = stored = 0
for g, packet in seen:
    back = defense.deserialize_packet(defense.serialize_packet(packet), g.shape,
                                      defense.DefenseConfig(method="svdefense"))
    dead_rows, dead_cols = ~g.any(axis=1), ~g.any(axis=0)
    dead = np.concatenate([back.channel_weights[dead_rows], back.vt_star[:, dead_cols].ravel()])
    rows, column_entries = rows + dead_rows.sum(), column_entries + back.vt_star[:, dead_cols].size
    stored += np.count_nonzero(dead.view(np.uint64))
with open(sys.argv[1], "w") as fh:
    json.dump([len(seen), int(rows), int(column_entries), int(stored)], fh)
"""


class TestBlasKernels:
    @pytest.mark.skipif(platform.machine() != "x86_64" or not dynamic_arch_openblas(),
                        reason="needs an x86_64 OpenBLAS built with DYNAMIC_ARCH")
    def test_svdefense_model_agrees_across_kernels(self, tmp_path):
        # 3 default svdefense rounds under the host's kernel and under
        # Prescott's (SSE3, which every x86_64 CPU numpy runs on has). The
        # kernels round differently, but a channel no client touched rebuilds
        # as zeros, not as rounding noise over the 1e-8 weight floor, so the
        # models agree as closely as the other methods' do
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"fl": {"rounds": 3, "defense": {"method": "svdefense"}}}))
        models = []
        for coretype in (None, "Prescott"):
            out = tmp_path / (coretype or "host")
            subprocess.run([sys.executable, "-m", "svdlab.cli", "train", "--config", str(path),
                            "--out", str(out)], env=cli_env(OPENBLAS_CORETYPE=coretype),
                           check=True, capture_output=True, timeout=60)
            models.append(tinynn.load_model(out / "model.bin"))
        for host, forced in zip(*(m.tensors() for m in models)):
            assert np.abs(host - forced).max() <= 1e-12 * np.abs(host).max()


class TestMainModule:
    def test_profiled_run_writes_what_the_plain_run_writes(self, tmp_path):
        # under cProfile the run's __main__ is the profiler's, not cli.py's
        path = write_config(tmp_path, {"fl.rounds": 1})
        subprocess.run([sys.executable, "-m", "cProfile", "-o", str(tmp_path / "prof.out"),
                        "-m", "svdlab.cli", "train", "--config", path,
                        "--out", str(tmp_path / "profiled")],
                       env=cli_env(), check=True, capture_output=True, timeout=60)
        assert cli.main(["train", "--config", path, "--out", str(tmp_path / "plain")]) == 0
        for name in ("rounds.csv", "model.bin"):
            assert ((tmp_path / "profiled" / name).read_bytes()
                    == (tmp_path / "plain" / name).read_bytes())


class TestOutputContainment:
    def test_everything_under_out(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "sandbox"
        before = set(os.listdir(tmp_path))
        assert cli.main(["train", "--config", path, "--out", str(out)]) == 0
        after = set(os.listdir(tmp_path))
        assert after - before == {"sandbox"}

    @pytest.mark.parametrize("command, name", [("train", "model.bin"),
                                               ("attack", "images_000.csv")])
    def test_failed_write_leaves_no_file(self, tmp_path, capsys, monkeypatch, command, name):
        # each output goes through a temporary file that replaces it whole
        real_replace = os.replace

        def replace(src, dst):
            if os.path.basename(dst) == name:
                raise OSError(f"cannot write {name}")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        path = write_config(tmp_path, {"attack.iterations": 5})
        out = tmp_path / "o"
        assert cli.main([command, "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"input error: cannot write {name}\n"
        assert not (out / name).exists() and not list(out.glob(".tmp-*.part"))


def mean_attack_mse(tmp_path, name, defense_method, adaptive="none"):
    overrides = {
        "fl.defense.method": defense_method,
        "fl.defense.beta": 0.3,
        "fl.defense.prune_rate": 0.9,
        "attack.adaptive": adaptive,
        "attack.iterations": 800,
        "attack.n_examples": 6,
        "attack.restarts": 2,
        "data.per_class": 30,
    }
    path = write_config(tmp_path, overrides, name=f"{name}.json")
    out = tmp_path / name
    assert cli.main(["attack", "--config", path, "--out", str(out)]) == 0
    summary = (out / "attack.csv").read_text().splitlines()[-1]
    return float(summary.split(",")[3])


class TestAttackOrderings:
    def test_defended_summary_worse_than_undefended(self, tmp_path):
        m_none = mean_attack_mse(tmp_path, "none", "none")
        m_svd = mean_attack_mse(tmp_path, "svdef", "svdefense")
        assert m_svd > m_none

    def test_mask_adaptive_beats_plain_on_pruned(self, tmp_path):
        m_plain = mean_attack_mse(tmp_path, "prune_plain", "prune")
        m_adapt = mean_attack_mse(tmp_path, "prune_adapt", "prune", adaptive="prune_mask")
        assert m_adapt < m_plain


class TestIdxDataset:
    @staticmethod
    def write_idx(tmp_path, n=60, side=(8, 8), cut_images=0, cut_labels=0,
                  label_values=(0, 1, 2), magic=2051, n_labels=None, config=None):
        import numpy as np

        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(n, *side), dtype=np.uint8)
        labels = np.repeat(np.array(label_values, dtype=np.uint8), n // len(label_values))
        labels = labels[:n_labels]
        img = struct.pack(">IIII", magic, n, *side) + images.tobytes()
        lab = struct.pack(">II", 2049, len(labels)) + labels.tobytes()
        (tmp_path / "img.idx").write_bytes(img[: len(img) - cut_images])
        (tmp_path / "lab.idx").write_bytes(lab[: len(lab) - cut_labels])
        return write_config(
            tmp_path,
            {
                "data.idx_images": str(tmp_path / "img.idx"),
                "data.idx_labels": str(tmp_path / "lab.idx"),
                "data.num_classes": 3,
                "fl.num_clients": 3,
                "fl.rounds": 2,
                **(config or {}),
            },
        )

    def test_train_on_idx_files(self, tmp_path):
        path = self.write_idx(tmp_path)
        out = tmp_path / "idx_run"
        assert cli.main(["train", "--config", path, "--out", str(out)]) == 0
        assert len((out / "rounds.csv").read_text().splitlines()) == 3

    @pytest.mark.parametrize(
        "malformed, says",
        [
            ({"cut_images": 60 * 64 + 6}, "shorter than its 16-byte IDX header"),
            ({"cut_images": 1}, "header declares 3840 payload bytes"),
            ({"cut_labels": 1}, "header declares 60 payload bytes"),
            ({"n": 0}, "holds no pixels"),
            ({"magic": 2052}, "bad IDX magic 2052, expected 2051"),
            ({"n_labels": 59}, "image/label counts differ"),
        ],
        ids=["short_header", "short_pixels", "short_labels", "zero_images", "bad_magic",
             "one_label_short"],
    )
    def test_malformed_idx_exits_2(self, tmp_path, capsys, malformed, says):
        path = self.write_idx(tmp_path, **malformed)
        rc = cli.main(["train", "--config", path, "--out", str(tmp_path / "o")])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(lines) == 1 and lines[0].startswith("input error: ") and says in lines[0]

    @pytest.mark.parametrize(
        "command, files, config, says",
        [("attack", {"label_values": (0, 1)}, {"attack.batch_size": 3},
          "not enough distinct labels for the requested attack batch size"),
         ("train", {}, {"data.per_class_test": 20},
          "IDX dataset too small for the requested test split"),
         ("train", {}, {"fl.partition_scheme": "rho", "fl.num_clients": 11,
                        "data.per_class_test": 10},
          "a client shard came out empty; add data or clients")],
        ids=["two_labels_batch_3", "test_split_takes_every_example", "empty_rho_shard"],
    )
    def test_data_too_small_for_the_config_exits_2(self, tmp_path, capsys, command, files,
                                                    config, says):
        # the config is valid, and only the loaded files make it unworkable:
        # 2 distinct labels for a batch of 3 (data.num_classes is 3), 20 test
        # examples of a class of 20, and 11 rho clients sharing a class's 10
        # training examples, so the last client's slice of every class is
        # empty; 2 clients a round throughout
        path = self.write_idx(tmp_path, config={"fl.clients_per_round": 2, **config}, **files)
        rc = cli.main([command, "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {says}"]

    @pytest.mark.parametrize(
        "mismatch, names",
        [({"label_values": (0, 1, 2, 7)}, "label 7"), ({"side": (9, 9)}, "9x9, data.side is 8"),
         ({"side": (8, 9)}, "8x9, data.side is 8")],
        ids=["label_7", "side_9", "rows_8_cols_9"],
    )
    def test_idx_must_match_data_config(self, tmp_path, capsys, mismatch, names):
        # data.num_classes is 3 and data.side 8: a label 7, 9x9 or 8x9 images
        # are refused, not silently adopted
        path = self.write_idx(tmp_path, **mismatch)
        rc = cli.main(["train", "--config", path, "--out", str(tmp_path / "o")])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(lines) == 1 and lines[0].startswith("input error: ") and names in lines[0]

    def test_idx_paths_must_pair(self, tmp_path, capsys):
        path = write_config(tmp_path, {"data.idx_images": "only_images.idx"})
        rc = cli.main(["train", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "idx" in capsys.readouterr().err
