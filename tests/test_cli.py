"""Command-line behavior: config validation, outputs, determinism."""

import json
import os
import re
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
        "section_not_object": ({"fl.defense": "svdefense"}, "fl.defense"),
        "model_not_object": ({"model": [32]}, "model"),
        "unknown_nested": ({"model.depth": 2}, "model.depth"),
        "cross_field_clients": ({"fl.clients_per_round": 5}, "fl.clients_per_round"),
        "cross_field_dgp": (
            {"fl.defense.dgp_small_rate": 0.6, "fl.defense.dgp_large_rate": 0.5},
            "fl.defense.dgp_small_rate",
        ),
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
        defense = DefenseConfig(method="none", seed=3)
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

    @pytest.mark.parametrize("case", ["missing", "truncated", "input_dim"])
    def test_bad_checkpoint_exits_2(self, tmp_path, capsys, case):
        ckpt = tmp_path / "model.bin"
        if case != "missing":
            tinynn.save_model(tinynn.init_model(64 if case == "truncated" else 100, [32], 4), ckpt)
        if case == "truncated":
            ckpt.write_bytes(ckpt.read_bytes()[:200])
        path = write_config(tmp_path)
        rc = cli.main(["attack", "--config", path, "--out", str(tmp_path / "o"),
                       "--model", str(ckpt)])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(lines) == 1 and lines[0].startswith("input error: ")


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
    def write_idx(tmp_path, n=60, side=8, cut_images=0, cut_labels=0):
        import struct

        import numpy as np

        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(n, side, side), dtype=np.uint8)
        labels = np.repeat(np.arange(3, dtype=np.uint8), n // 3)
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

    def test_idx_paths_must_pair(self, tmp_path, capsys):
        path = write_config(tmp_path, {"data.idx_images": "only_images.idx"})
        rc = cli.main(["train", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "idx" in capsys.readouterr().err
