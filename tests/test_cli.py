"""Command-line behavior: config validation, outputs, determinism."""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from svdlab import cli, tinynn
from svdlab.attack import AttackConfig
from svdlab.defense import DefenseConfig
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
        "label_mode": "known",
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

    def test_env_seed_override(self, tmp_path, monkeypatch):
        path = write_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        monkeypatch.setenv("SVDLAB_SEED", "3")
        assert cli.main(["train", "--config", path, "--out", str(out_a)]) == 0
        monkeypatch.setenv("SVDLAB_SEED", "99")
        assert cli.main(["train", "--config", path, "--out", str(out_b)]) == 0
        assert (out_a / "rounds.csv").read_bytes() != (out_b / "rounds.csv").read_bytes()


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

    @pytest.fixture(autouse=True)
    def _no_env_seed(self, monkeypatch):
        monkeypatch.delenv("SVDLAB_SEED", raising=False)

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

    @pytest.mark.parametrize("overrides", [{"data.num_classes": 2},
                                           {"attack.label_mode": "inferred"}],
                             ids=["batch_over_classes", "inferred_batch"])
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
        assert spec == replace(cli.ExperimentSpec(), attack=AttackConfig(defense=DefenseConfig()))

        spec, errors = cli.load_spec(write_config(tmp_path))
        assert errors == []
        defense = DefenseConfig(method="none")
        assert spec == cli.ExperimentSpec(
            seed=3,
            data=DataConfig(num_classes=4, per_class=20, per_class_test=5, side=8),
            fl=FlConfig(num_clients=4, clients_per_round=2, rounds=3, local_batch_size=8,
                        local_lr=0.5, defense=defense, seed=3),
            attack=AttackConfig(distance="neg_cosine_layerwise", iterations=60, lr=0.1,
                                label_mode="known", seed=3, defense=defense),
            harness=cli.AttackHarnessConfig(batch_size=3, n_examples=2, restarts=1),
            hidden_dims=(32,),
        )

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

    @pytest.mark.parametrize("method", ["none", "svdefense"])
    def test_divergence_exits_3(self, tmp_path, capsys, recwarn, method):
        path = write_config(tmp_path, {"fl.defense.method": method, "fl.local_lr": 1e308})
        rc = cli.main(["train", "--config", path, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 3
        assert "diverged" in err and "Traceback" not in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "o" / "rounds.csv").exists()

    @pytest.mark.parametrize("case", ["missing", "truncated", "input_dim", "trailing", "nan"])
    def test_bad_checkpoint_exits_2(self, tmp_path, capsys, case):
        ckpt = tmp_path / "model.bin"
        if case != "missing":
            model = tinynn.init_model(100 if case == "input_dim" else 64, [32], 4)
            if case == "nan":
                model.layers[1].weight[2, 3] = float("nan")
            tinynn.save_model(model, ckpt)
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


    @pytest.mark.parametrize("classes", [2, 6])
    def test_checkpoint_of_other_class_count_exits_2(self, tmp_path, capsys, classes):
        ckpt = tmp_path / "model.bin"
        tinynn.save_model(tinynn.init_model(64, [32], classes), ckpt)
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
        tinynn.save_model(model, ckpt)
        path = write_config(tmp_path, {"fl.defense.method": "svdefense", "attack.iterations": 5,
                                       **overrides})
        return cli.main(["attack", "--config", path, "--out", str(tmp_path / "o"),
                         "--model", str(ckpt)])

    @pytest.mark.parametrize("adaptive", ["none", "defense_replay"])
    @pytest.mark.parametrize("distance", ["l2", "neg_cosine_layerwise"])
    def test_tiny_checkpoint_attacks_under_svdefense(self, tmp_path, capsys, distance, adaptive):
        # gradients near 1e-160 square below the smallest double; the SVD,
        # the replay and the cosine distance must still see their norms
        overrides = {"attack.distance": distance, "attack.adaptive": adaptive}
        assert self.attack_scaled_checkpoint(tmp_path, 1e-160, overrides) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_unrepresentable_weighted_update_exits_3(self, tmp_path, capsys):
        # near 1e-170 the channel-weighted gradient (|g|^2) is below the
        # smallest double, so the defense cannot factor it
        assert self.attack_scaled_checkpoint(tmp_path, 1e-170, {}) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure: ")

    def test_overflowing_weighted_update_exits_3(self, tmp_path, capsys):
        # a step of 1e100 leaves finite gradients whose channel-weighted
        # product w g overflows before the defense can factor it
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"fl": {"rounds": 1, "local_lr": 1e100,
                                           "defense": {"method": "svdefense"}}}))
        rc = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 3
        assert len(lines) == 1 and lines[0].startswith("numerical failure: ")
        assert "channel-weighted update" in lines[0]

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

    def test_overflowing_attack_step_exits_3(self, tmp_path, capsys):
        # a total-variation weight of 1e300 overflows Adam's second moment
        path = write_config(tmp_path, {"attack.tv_weight": 1e300, "attack.iterations": 5})
        rc = cli.main(["attack", "--config", path, "--out", str(tmp_path / "o")])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 3
        assert len(lines) == 1 and lines[0].startswith("numerical failure: ")
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


class TestTrain:
    def test_outputs_and_schema(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", path, "--out", str(out)]) == 0
        lines = (out / "rounds.csv").read_text().splitlines()
        assert lines[0] == "round,accuracy,bytes_up,bytes_down,mean_entropy,defense_method"
        assert len(lines) == 1 + BASE_CONFIG["fl"]["rounds"]
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
        assert lines[0] == "example_id,defense,attack_mode,mse,psnr,ssim"
        assert len(lines) == 1 + 2 + 1  # rows + summary
        assert lines[-1].startswith("mean,")
        assert (out / "truth_000.pgm").exists()
        assert (out / "recon_000.pgm").exists()

    def test_byte_identical_rerun(self, tmp_path):
        path = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["attack", "--config", path, "--out", str(out_a)]) == 0
        assert cli.main(["attack", "--config", path, "--out", str(out_b)]) == 0
        assert (out_a / "attack.csv").read_bytes() == (out_b / "attack.csv").read_bytes()

    def test_warnings_go_to_stderr(self, tmp_path, capsys):
        # heavy noise leaves no single negative output-bias entry on example
        # 0, so label inference falls back to optimizing labels
        overrides = {
            "fl.defense": {"method": "dp_gauss", "noise_scale": 5.0},
            "attack.label_mode": "inferred", "attack.batch_size": 1,
        }
        path = write_config(tmp_path, overrides)
        out = tmp_path / "atk"
        assert cli.main(["attack", "--config", path, "--out", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err and all(line.startswith("warning: example ") for line in err)
        assert any(line.startswith("warning: example 0: label inference failed") for line in err)
        lines = (out / "attack.csv").read_text().splitlines()
        assert lines[0] == "example_id,defense,attack_mode,mse,psnr,ssim"
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "mean"]

    @pytest.mark.parametrize("side", [4, 6])
    def test_small_and_even_sides(self, tmp_path, side):
        # the SSIM window is the largest odd one up to 7 that fits the side
        path = write_config(tmp_path, {"data.side": side, "attack.iterations": 5})
        out = tmp_path / "atk"
        assert cli.main(["attack", "--config", path, "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "attack.csv").read_text().splitlines()[1:]]
        assert all(math.isfinite(float(row[-1])) for row in rows)

    def test_inferred_needs_batch_one(self, tmp_path, capsys):
        path = write_config(tmp_path, {"attack.label_mode": "inferred"})
        rc = cli.main(["attack", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "batch_size" in capsys.readouterr().err


class TestSweep:
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
        assert lines[0] == "axis,value,final_accuracy,mean_attack_mse,comm_reduction_pct,mean_entropy"
        assert len(lines) == 4
        assert all(line.startswith("beta,") for line in lines[1:])

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


class TestBlasThreads:
    def test_outputs_do_not_depend_on_the_thread_count(self, tmp_path):
        # train and attack --model in fresh interpreters under one and two
        # OpenBLAS threads write the same bytes
        path = write_config(tmp_path, {"fl.defense.method": "svdefense", "fl.rounds": 2,
                                       "attack.adaptive": "defense_replay",
                                       "attack.iterations": 20})
        src = str(Path(cli.__file__).parents[1])
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads_{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            env.pop("SVDLAB_SEED", None)
            for args in (["train"], ["attack", "--model", str(out / "model.bin")]):
                subprocess.run([sys.executable, "-m", "svdlab.cli", *args, "--config", path,
                                "--out", str(out if args == ["train"] else out / "atk")],
                               env=env, check=True, capture_output=True, timeout=60)
            outputs.append({p.relative_to(out): p.read_bytes()
                            for p in sorted(out.rglob("*")) if p.is_file()})
        assert len(outputs[0]) == 9  # rounds.csv, model.bin, attack.csv, 3 dumps per victim
        assert outputs[0] == outputs[1]


class TestMainModule:
    def test_profiled_run_writes_what_the_plain_run_writes(self, tmp_path):
        # under cProfile the run's __main__ is the profiler's, not cli.py's
        path = write_config(tmp_path, {"fl.rounds": 1})
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("SVDLAB_SEED", None)
        subprocess.run([sys.executable, "-m", "cProfile", "-o", str(tmp_path / "prof.out"),
                        "-m", "svdlab.cli", "train", "--config", path,
                        "--out", str(tmp_path / "profiled")],
                       env=env, check=True, capture_output=True, timeout=60)
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
    def write_idx(tmp_path, n=60, side=8, cut_images=0, cut_labels=0, label_values=(0, 1, 2)):
        import struct

        import numpy as np

        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(n, side, side), dtype=np.uint8)
        labels = np.repeat(np.array(label_values, dtype=np.uint8), n // len(label_values))
        img = struct.pack(">IIII", 2051, n, side, side) + images.tobytes()
        lab = struct.pack(">II", 2049, n) + labels.tobytes()
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
            },
        )

    def test_train_on_idx_files(self, tmp_path):
        path = self.write_idx(tmp_path)
        out = tmp_path / "idx_run"
        assert cli.main(["train", "--config", path, "--out", str(out)]) == 0
        assert len((out / "rounds.csv").read_text().splitlines()) == 3

    @pytest.mark.parametrize(
        "malformed",
        [
            {"cut_images": 60 * 64 + 6},  # shorter than the 16-byte header
            {"cut_images": 1},  # pixel payload short of count * rows * cols
            {"cut_labels": 1},  # label payload short of its count
            {"n": 0},  # zero images
        ],
        ids=["short_header", "short_pixels", "short_labels", "zero_images"],
    )
    def test_malformed_idx_exits_2(self, tmp_path, capsys, malformed):
        path = self.write_idx(tmp_path, **malformed)
        rc = cli.main(["train", "--config", path, "--out", str(tmp_path / "o")])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(lines) == 1 and lines[0].startswith("input error: ")

    @pytest.mark.parametrize(
        "mismatch", [{"label_values": (0, 1, 2, 7)}, {"side": 9}], ids=["label_7", "side_9"]
    )
    def test_idx_must_match_data_config(self, tmp_path, capsys, mismatch):
        # data.num_classes is 3 and data.side 8: a label 7 or 9x9 images are
        # refused, not silently adopted
        path = self.write_idx(tmp_path, **mismatch)
        rc = cli.main(["train", "--config", path, "--out", str(tmp_path / "o")])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(lines) == 1 and lines[0].startswith("input error: ")

    def test_idx_paths_must_pair(self, tmp_path, capsys):
        path = write_config(tmp_path, {"data.idx_images": "only_images.idx"})
        rc = cli.main(["train", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "idx" in capsys.readouterr().err
