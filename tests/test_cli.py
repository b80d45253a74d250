"""End-to-end command-line behavior: artifacts, config layering, exit codes."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tailens
from tailens.cli import main
from tailens.dataset import load_csv
from tailens.ensemble import CHECKPOINT_MAGIC

FAST = {
    "classes": "4",
    "dim": "3",
    "n-max": "30",
    "imbalance": "4.0",
    "test-per-class": "10",
    "hidden": "4",
    "epochs": "2",
    "batch-size": "16",
    "particles": "2",
}


def flags(out, **overrides):
    merged = dict(FAST)
    merged.update({k.replace("_", "-"): v for k, v in overrides.items()})
    merged["out"] = str(out)
    result = []
    for key, value in merged.items():
        result += [f"--{key}", value]
    return result


class TestGenerateData:
    def test_writes_csvs_and_config(self, tmp_path, capsys):
        assert main(["generate-data"] + flags(tmp_path)) == 0
        train_data = load_csv(tmp_path / "train.csv", split_tag="train")
        test_data = load_csv(tmp_path / "test.csv", split_tag="test")
        assert train_data.num_classes == 4
        assert len(test_data) == 40
        assert (tmp_path / "config.json").exists()
        assert "class counts" in capsys.readouterr().out

    def test_rejects_csv_inputs(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert main(["generate-data"] + flags(data_dir)) == 0
        code = main(
            ["generate-data"]
            + flags(tmp_path, train_csv=str(data_dir / "train.csv"))
        )
        assert code == 1
        assert "synthetic" in capsys.readouterr().err


class TestTrain:
    def test_writes_artifacts(self, tmp_path, capsys):
        assert main(["train"] + flags(tmp_path)) == 0
        for name in ("ensemble.ckpt", "trainlog.jsonl", "metrics.json", "config.json"):
            assert (tmp_path / name).exists(), name
        lines = (tmp_path / "trainlog.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert "acc" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["train"] + flags(out_a)) == 0
        assert main(["train"] + flags(out_b)) == 0
        for name in ("ensemble.ckpt", "metrics.json", "trainlog.jsonl"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_config_json_is_sorted_and_complete(self, tmp_path):
        assert main(["train"] + flags(tmp_path)) == 0
        echoed = json.loads((tmp_path / "config.json").read_text())
        keys = list(echoed)
        assert keys == sorted(keys)
        assert echoed["epochs"] == 2
        assert echoed["classes"] == 4

    def test_trains_from_csv_files(self, tmp_path):
        data_dir = tmp_path / "data"
        assert main(["generate-data"] + flags(data_dir)) == 0
        out = tmp_path / "run"
        code = main(
            ["train"]
            + flags(
                out,
                train_csv=str(data_dir / "train.csv"),
                test_csv=str(data_dir / "test.csv"),
            )
        )
        assert code == 0
        assert (out / "metrics.json").exists()

    @pytest.mark.filterwarnings("ignore:spread term")
    def test_checkpoint_stride_writes_epoch_files(self, tmp_path):
        assert main(["train"] + flags(tmp_path, checkpoint_every="1")) == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert "checkpoint_epoch0000.ckpt" in names
        assert "checkpoint_epoch0001.ckpt" in names

    def test_tail_sensitive_utility(self, tmp_path):
        code = main(
            ["train"]
            + flags(tmp_path, utility="tail-sensitive", rho="0.5")
        )
        assert code == 0

    def test_utility_from_csv(self, tmp_path):
        path = tmp_path / "utility.csv"
        rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [-1, -1, 0, 1]]
        path.write_text("\n".join(",".join(str(v) for v in row) for row in rows) + "\n")
        assert main(["train"] + flags(tmp_path / "out", utility=str(path))) == 0

    def test_utility_csv_class_mismatch(self, tmp_path, capsys):
        path = tmp_path / "utility.csv"
        path.write_text("1,0\n0,1\n")
        assert main(["train"] + flags(tmp_path / "out", utility=str(path))) == 1
        assert "error" in capsys.readouterr().err


class TestEvaluate:
    def test_reproduces_train_metrics(self, tmp_path):
        run = tmp_path / "run"
        assert main(["train"] + flags(run)) == 0
        out = tmp_path / "eval"
        code = main(
            ["evaluate", "--checkpoint", str(run / "ensemble.ckpt")] + flags(out)
        )
        assert code == 0
        assert (out / "metrics.json").read_bytes() == (run / "metrics.json").read_bytes()
        with open(out / "predictions.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "decision", "argmax_pred", "entropy", "maxprob"]
        assert len(rows) == 41

    def test_class_count_mismatch(self, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["train"] + flags(run)) == 0
        code = main(
            ["evaluate", "--checkpoint", str(run / "ensemble.ckpt")]
            + flags(tmp_path / "eval", classes="5")
        )
        assert code == 1
        assert "classes" in capsys.readouterr().err

    def test_checkpoint_flag_required(self):
        assert main(["evaluate"]) == 1

    def test_missing_checkpoint_file(self, tmp_path, capsys):
        code = main(
            ["evaluate", "--checkpoint", str(tmp_path / "nope.ckpt")]
            + flags(tmp_path)
        )
        assert code == 2
        assert "runtime error" in capsys.readouterr().err


class TestConfigLayering:
    def test_config_file_applies(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1}))
        assert main(["train", "--config", str(cfg)] + flags(tmp_path)[:-4]
                    + ["--out", str(tmp_path)]) == 0

    def test_flag_beats_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1}))
        code = main(["train", "--config", str(cfg)] + flags(tmp_path, epochs="3"))
        assert code == 0
        lines = (tmp_path / "trainlog.jsonl").read_text().splitlines()
        assert len(lines) == 3
        assert json.loads((tmp_path / "config.json").read_text())["epochs"] == 3

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert main(["train", "--config", str(cfg)] + flags(tmp_path)) == 1
        assert "bogus" in capsys.readouterr().err

    def test_malformed_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["train", "--config", str(cfg)] + flags(tmp_path)) == 1
        assert "JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value",
        [
            ("epochs", "0"),
            ("momentum", "1.0"),
            ("ratio", "bogus"),
            ("repulsion", "maybe"),
            ("learning-rate", "-0.1"),
            ("hidden", "32,0"),
            ("tail-ratios", "0.5,2.0"),
            ("classes", "1"),
        ],
    )
    def test_bad_flag_values(self, tmp_path, key, value, capsys):
        args = ["train"] + flags(tmp_path) + [f"--{key}", value]
        assert main(args) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag(self):
        assert main(["train", "--nope", "1"]) == 1

    def test_command_required(self):
        assert main([]) == 1


@pytest.mark.filterwarnings("ignore:spread term")
class TestSweep:
    def sweep_flags(self, out):
        return flags(out, epochs="1", runs="1", repulsion="off")

    def test_particles_axis(self, tmp_path, capsys):
        args = (
            ["sweep", "--axis", "particles", "--grid", "1,2"]
            + self.sweep_flags(tmp_path)
        )
        assert main(args) == 0
        with open(tmp_path / "sweep_particles.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3
        assert rows[0][0] == "particles"
        assert [rows[1][0], rows[2][0]] == ["1", "2"]
        assert "particles=2" in capsys.readouterr().out

    def test_ratio_axis_extras(self, tmp_path):
        args = (
            ["sweep", "--axis", "ratio", "--grid", "linear,plain"]
            + self.sweep_flags(tmp_path)
        )
        assert main(args) == 0
        with open(tmp_path / "sweep_ratio.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        for column in ("weight_first", "weight_last", "growth_pct"):
            assert column in header
        growth = float(rows[1][header.index("growth_pct")])
        assert growth > 0.0  # linear form grows toward the tail

    def test_parallel_matches_serial(self, tmp_path):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        base = ["sweep", "--axis", "particles", "--grid", "1,2"]
        assert main(base + self.sweep_flags(serial)) == 0
        assert main(base + self.sweep_flags(parallel) + ["--jobs", "2"]) == 0
        assert (serial / "sweep_particles.csv").read_bytes() == (
            parallel / "sweep_particles.csv"
        ).read_bytes()

    def test_empty_grid(self, tmp_path, capsys):
        args = ["sweep", "--axis", "ratio", "--grid", ","] + self.sweep_flags(tmp_path)
        assert main(args) == 1
        assert "empty" in capsys.readouterr().err

    def test_bad_grid_value(self, tmp_path):
        args = (
            ["sweep", "--axis", "ratio", "--grid", "bogus"]
            + self.sweep_flags(tmp_path)
        )
        assert main(args) == 1

    def test_bad_axis(self, tmp_path):
        args = ["sweep", "--axis", "bogus"] + self.sweep_flags(tmp_path)
        assert main(args) == 1


GOOD_HEADER = (
    b'{"hidden": [3], "input_dim": 2, "n_particles": 1,'
    b' "num_classes": 2, "param_count": 17, "version": 1}'
)

# family -> (command, file name, file bytes, extra flags naming the file, stderr text)
MALFORMED = {
    "config-json": ("train", "cfg.json", b"{not json", ["--config"], "JSON"),
    "config-key": ("train", "cfg.json", b'{"bogus": 1}', ["--config"], "bogus"),
    "flag-value": ("train", None, None, ["--momentum", "1.5"], "momentum"),
    "checkpoint-magic": (
        "evaluate", "x.ckpt", b"NOT-A-CHECKPOINT\n{}\n", ["--checkpoint"], "line 1"
    ),
    "checkpoint-header": (
        "evaluate",
        "x.ckpt",
        CHECKPOINT_MAGIC + b'\n{"version": 1, "n_particles": "x", "hidden": [3]}\n',
        ["--checkpoint"],
        "line 2",
    ),
    "checkpoint-payload": (
        "evaluate", "x.ckpt", CHECKPOINT_MAGIC + b"\n" + GOOD_HEADER + b"\n\0\0\0",
        ["--checkpoint"], "payload",
    ),
    "csv-non-numeric": (
        "train", "data.csv", b"f0,label\n1.0,0\nabc,1\n", ["--train-csv"], "line 3"
    ),
    "csv-non-finite": (
        "train", "data.csv", b"f0,f1,label\n1.0,2.0,0\nnan,1.0,1\n1e999,0.0,1\n",
        ["--train-csv"], "line 3",
    ),
    "utility-csv": ("train", "u.csv", b"1,0,0,0\nx,1,0,0\n", ["--utility"], "line 2"),
}


@pytest.mark.parametrize("family", sorted(MALFORMED))
def test_malformed_inputs_exit_1_without_traceback(tmp_path, family):
    command, name, blob, extra, needle = MALFORMED[family]
    if name is not None:
        (tmp_path / name).write_bytes(blob)
        extra = extra + [str(tmp_path / name)]
    env = dict(os.environ, PYTHONPATH=str(Path(tailens.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "tailens.cli", command, *flags(tmp_path / "out"), *extra],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 1, result.stderr
    assert "Traceback" not in result.stderr
    assert needle in result.stderr


# sha256 of the artifacts of `tailens train --epochs 30 --seed 0` and of
# `tailens evaluate` on its checkpoint (numpy 2.4, x86-64 OpenBLAS). A change
# that alters them changes the byte-identity contract and must say so.
GOLDEN = {
    "train/ensemble.ckpt": "f47762de522c6980c0e321538168e81de3d7fa68e98e7399e516f94a5cf8e999",
    "train/trainlog.jsonl": "4855be30dc9b5b0bc9645c08fb31334d7929a9b03b2a66457ab9b2489c4cfb7c",
    "train/metrics.json": "05edd6164bb73916240df6375b98da7e6dc7fec5e7debd0b5aea014ad0cd67fd",
    "eval/predictions.csv": "f68341be1bb37d1bf58add763e753fb87347be7f433d9af293f3d89f38c3dd11",
}


def test_default_run_matches_golden_hashes(tmp_path):
    train_dir, eval_dir = tmp_path / "train", tmp_path / "eval"
    assert main(["train", "--epochs", "30", "--seed", "0", "--out", str(train_dir)]) == 0
    checkpoint = str(train_dir / "ensemble.ckpt")
    assert main(["evaluate", "--checkpoint", checkpoint, "--out", str(eval_dir)]) == 0
    for name, digest in GOLDEN.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
