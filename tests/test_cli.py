"""End-to-end command-line behavior: artifacts, config layering, exit codes."""

import concurrent.futures
import contextlib
import csv
import dataclasses
import inspect
import io
import json
import re
import sys
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
import tailens
from conftest import FAST, flags, python, random_ensemble
from tailens import cli, trainer
from tailens.cli import SCHEMA, main
from tailens.dataset import load_csv
from tailens.decision import write_predictions_csv
from tailens.ensemble import CHECKPOINT_MAGIC, load_checkpoint, save_checkpoint
from tailens.errors import ParseError
from tailens.metrics import MetricsReport, report_to_json
from tailens.numcore import NetShape
from tailens.trainer import TrainConfig, evaluate
from tailens.utility import tail_sensitive
from test_dataset import K_MAX, MALFORMED_ROWS, csv_rows, write_csv

@pytest.fixture(scope="module")
def fast_data(tmp_path_factory):
    """The directory of one FAST generate-data run, shared by the tests that read it."""
    data = tmp_path_factory.mktemp("data")
    assert main(["generate-data"] + flags(data)) == 0
    return data


@pytest.fixture(scope="module")
def fast_run(tmp_path_factory):
    """The directory of one FAST train run, shared by the tests that evaluate it."""
    run = tmp_path_factory.mktemp("run")
    assert main(["train"] + flags(run)) == 0
    return run


class TestGenerateData:
    def test_writes_csvs_and_config(self, tmp_path, capsys):
        assert main(["generate-data"] + flags(tmp_path)) == 0
        train_data = load_csv(tmp_path / "train.csv")
        test_data = load_csv(tmp_path / "test.csv")
        assert train_data.num_classes == 4
        assert len(test_data) == 40
        assert (tmp_path / "config.json").exists()
        assert "class counts" in capsys.readouterr().out

    def test_rejects_csv_inputs(self, family_run):
        run = family_run("generate-data-train-csv")[1]
        assert run.code == 1
        assert "synthetic" in run.stderr

    def test_out_of_memory_is_a_runtime_error(self, tmp_path, monkeypatch, capsys):
        # raised in-process: a machine that overcommits memory might try to supply
        # a real request that large
        def refuse(**settings):
            raise MemoryError("Unable to allocate 1.00 TiB")

        monkeypatch.setattr(cli, "generate_synthetic", refuse)
        assert main(["generate-data"] + flags(tmp_path / "out")) == 2
        assert capsys.readouterr().err == "runtime error: Unable to allocate 1.00 TiB\n"
        assert not (tmp_path / "out").exists()


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

    def test_trains_from_csv_files(self, tmp_path, fast_data):
        csvs = {"train_csv": str(fast_data / "train.csv"), "test_csv": str(fast_data / "test.csv")}
        assert main(["train"] + flags(tmp_path, **csvs)) == 0
        assert (tmp_path / "metrics.json").exists()
        echoed = json.loads((tmp_path / "config.json").read_text())
        assert echoed["test_csv"] == str(fast_data / "test.csv")

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

    def test_overflowing_features_train_silently(self, tmp_path, capsys):
        # 1e308 overflows the first layer's products, the tanh saturates and the
        # log-probs stay finite: as in evaluate, that trains, with no warning
        rows = ["1e308,0.5,0", "0.1,0.2,1", "-0.3,0.4,0", "0.5,-0.6,1", "0.7,0.8,0",
                "-0.9,1.0,1"]
        (tmp_path / "t.csv").write_text("f0,f1,label\n" + "\n".join(rows) + "\n")
        args = ["train", "--train-csv", str(tmp_path / "t.csv"), "--epochs", "3",
                "--hidden", "4", "--batch-size", "4", "--out", str(tmp_path / "out")]
        assert main(args) == 0
        assert capsys.readouterr().err == ""
        last = json.loads((tmp_path / "out" / "trainlog.jsonl").read_text().splitlines()[-1])
        assert np.isfinite(last["total"])

    def test_a_failed_evaluation_leaves_no_out(self, tmp_path, capsys):
        # the one step trains to finite parameters whose test log-probs are not
        args = ["train"] + flags(tmp_path / "out", particles="1", epochs="1")
        args += ["--batch-size", "100000", "--learning-rate", "5e307", "--weight-decay", "1"]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("numeric error: non-finite log-probabilities")
        assert not (tmp_path / "out").exists()

    def test_utility_csv_class_mismatch(self, family_run):
        run = family_run("train-utility-classes")[1]
        assert run.code == 1
        assert "error" in run.stderr


class TestEvaluate:
    def test_reproduces_train_metrics(self, tmp_path, fast_run):
        out = tmp_path / "eval"
        code = main(
            ["evaluate", "--checkpoint", str(fast_run / "ensemble.ckpt")] + flags(out)
        )
        assert code == 0
        assert (out / "metrics.json").read_bytes() == (fast_run / "metrics.json").read_bytes()
        with open(out / "predictions.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "decision", "argmax_pred", "entropy", "maxprob"]
        assert len(rows) == 41

    def test_entropy_is_computed_once(self, tmp_path, monkeypatch, fast_run):
        # decide_batch computes it once per row block (one block here); the AUC
        # and predictions.csv both read that (N,) result
        calls = []
        real = tailens.metrics.predictive_entropy

        def counted(probs):
            calls.append(probs.shape)
            return real(probs)

        for name, module in list(sys.modules.items()):
            if name.startswith("tailens") and hasattr(module, "predictive_entropy"):
                monkeypatch.setattr(module, "predictive_entropy", counted)
        args = ["evaluate", "--checkpoint", str(fast_run / "ensemble.ckpt")]
        assert main(args + flags(tmp_path / "eval")) == 0
        assert calls == [(40, 4)]

    def test_class_count_mismatch(self, family_run):
        run = family_run("evaluate-synthetic-classes")[1]
        assert run.code == 1
        assert "classes" in run.stderr

    def test_checkpoint_flag_required(self):
        assert main(["evaluate"]) == 1

    def test_k_comes_from_the_checkpoint(self, tmp_path, fast_data, fast_run):
        lines = (fast_data / "test.csv").read_text().splitlines()
        short = tmp_path / "no_top_class.csv"
        short.write_text("\n".join(line for line in lines if not line.endswith(",3")) + "\n")
        checkpoint = ["evaluate", "--checkpoint", str(fast_run / "ensemble.ckpt")]
        assert main(checkpoint + flags(tmp_path / "eval", test_csv=str(short))) == 0

    def test_no_tail_labels_print_no_tail_accuracy(self, tmp_path, capsys, fast_data, fast_run):
        lines = (fast_data / "test.csv").read_text().splitlines()
        head = tmp_path / "head_only.csv"
        head.write_text("\n".join(line for line in lines if line[-2:] not in (",2", ",3")) + "\n")
        capsys.readouterr()
        checkpoint = ["evaluate", "--checkpoint", str(fast_run / "ensemble.ckpt")]
        assert main(checkpoint + flags(tmp_path / "eval", test_csv=str(head))) == 0
        out, err = capsys.readouterr()
        assert "tail acc n/a" in out and err == ""
        assert json.loads((tmp_path / "eval" / "metrics.json").read_text())["acc_tail"] is None

    def test_train_csv_alone_is_rejected(self, family_run):
        where, run = family_run("evaluate-train-csv")
        assert run.code == 1
        assert "--test-csv" in run.stderr
        assert not (where / "out").exists()

    def test_overflowing_param_distance_exits_2(self, tmp_path, capsys):
        # the squares of a weight of 3.6e155 overflow float64 in the particles' norm
        ens = random_ensemble(NetShape(3, (4,), 4), 2, seed=3)
        ens.particles[0, 0] = 3.6e155
        save_checkpoint(ens, tmp_path / "far.ckpt")
        args = ["evaluate", "--checkpoint", str(tmp_path / "far.ckpt")]
        code = main(args + flags(tmp_path / "eval"))
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("numeric error: ") and err.count("\n") == 1, err
        assert "param_distance" in err
        assert not (tmp_path / "eval").exists()

    def test_a_report_that_does_not_render_leaves_no_metrics_file(
        self, tmp_path, monkeypatch, fast_run
    ):
        report = MetricsReport(
            acc_overall=float("nan"), acc_head=None, acc_med=None, acc_tail=None,
            fhr={0.5: 0.0}, fhr_avg=0.0, auc=None, ece=0.0, n_test=1,
        )
        monkeypatch.setattr(cli, "evaluate", lambda *args: (report, None))
        args = ["evaluate", "--checkpoint", str(fast_run / "ensemble.ckpt")]
        with pytest.raises(ValueError, match="JSON"):
            main(args + flags(tmp_path / "eval"))
        assert not (tmp_path / "eval").exists()

    def test_missing_checkpoint_file(self, tmp_path, capsys):
        code = main(
            ["evaluate", "--checkpoint", str(tmp_path / "nope.ckpt")]
            + flags(tmp_path)
        )
        assert code == 2
        assert "runtime error" in capsys.readouterr().err


class TestStreamedEvaluate:
    """evaluate --test-csv decides each row block of the CSV as it is parsed."""

    SHAPE = NetShape(16, (32,), 10)

    @pytest.fixture(scope="class")
    def model(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("model") / "model.ckpt"
        save_checkpoint(random_ensemble(self.SHAPE, 3, seed=23), path)
        return path

    def write_test_csv(self, path, n, rng):
        """n rows of 16 features, with blank lines scattered through the file."""
        features, labels = rng.normal(size=(n, 16)), rng.integers(0, 10, n)
        lines = [",".join([f"f{i}" for i in range(16)] + ["label"])]
        blanks = set(rng.integers(0, n, 1 + n // 50).tolist())
        for i, (row, label) in enumerate(zip(features.tolist(), labels.tolist())):
            lines += [""] * (i in blanks) + [",".join(map(repr, row)) + f",{label}"]
        path.write_text("\r\n".join(lines) + "\r\n")

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2047, 2048, 2049, 5000])
    def test_bytes_match_load_csv_and_evaluate(self, tmp_path, model, n, rng):
        test_csv = tmp_path / "test.csv"
        self.write_test_csv(test_csv, n, rng)
        out = tmp_path / "eval"
        args = ["evaluate", "--checkpoint", str(model), "--test-csv", str(test_csv)]
        assert main(args + ["--utility", "tail-sensitive", "--out", str(out)]) == 0
        ens, data = load_checkpoint(model), load_csv(test_csv, 10)
        report, batch = evaluate(ens, data, tail_sensitive(10, 0.5, 1.0))
        want = tmp_path / "want.csv"
        write_predictions_csv(batch, want)
        assert (out / "metrics.json").read_text() == report_to_json(report)
        assert (out / "predictions.csv").read_bytes() == want.read_bytes()

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(sorted(MALFORMED_ROWS)), big=st.booleans())
    def test_errors_match_load_csv(self, tmp_path_factory, data, kind, big):
        dim, lines = data.draw(csv_rows())
        at = data.draw(st.integers(0, len(lines) - 1))
        lines[at] = MALFORMED_ROWS[kind](data.draw, lines[at])
        tmp = tmp_path_factory.mktemp("streamed")
        ends = ("\n", "\r\n") if kind == "not-utf8" else ("\n", "\r\n", "\r")
        write_csv(data.draw, tmp / "test.csv", dim, lines, malformed_at=at, ends=ends)
        if big:  # 2,100 good rows first put the bad one in the second row block
            text = (tmp / "test.csv").read_bytes()
            head = ",".join([f"f{i}" for i in range(dim)] + ["label"]).encode()
            rest = text[len(head) :]
            end = rest[:2] if rest.startswith(b"\r\n") else rest[:1]
            good = ",".join(["1.5"] * dim + ["0"]).encode() + end
            (tmp / "test.csv").write_bytes(head + end + good * 2100 + rest[len(end) :])
        save_checkpoint(random_ensemble(NetShape(dim, (3,), K_MAX), 1, seed=dim), tmp / "m.ckpt")
        with pytest.raises(ParseError) as want:
            load_csv(tmp / "test.csv", K_MAX)
        args = ["evaluate", "--checkpoint", str(tmp / "m.ckpt")]
        args += ["--test-csv", str(tmp / "test.csv")]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert main(args + ["--out", str(tmp / "out")]) == 1
        assert err.getvalue() == f"error: {want.value}\n"
        assert not (tmp / "out").exists()

    def test_the_features_are_never_whole(self, tmp_path, model, rng):
        # the whole 50,000 x 16 features are 6.1 MiB, and a whole-file parse
        # held them twice; the per-row results of an op are 3.4 MiB
        self.write_test_csv(tmp_path / "test.csv", 50_000, rng)
        args = ["evaluate", "--checkpoint", str(model), "--test-csv", str(tmp_path / "test.csv")]
        args += ["--utility", "tail-sensitive", "--out", str(tmp_path / "eval")]
        tracemalloc.start()
        try:
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak


class TestConfigLayering:
    def test_config_file_applies(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1}))
        assert main(["train", "--config", str(cfg)] + flags(tmp_path)[:-4]
                    + ["--out", str(tmp_path)]) == 0

    def test_config_file_with_a_byte_order_mark(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'\xef\xbb\xbf{"seed": 7}')
        assert main(["train", "--config", str(cfg)] + flags(tmp_path)) == 0
        assert json.loads((tmp_path / "config.json").read_text())["seed"] == 7

    def test_flag_beats_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1}))
        code = main(["train", "--config", str(cfg)] + flags(tmp_path, epochs="3"))
        assert code == 0
        lines = (tmp_path / "trainlog.jsonl").read_text().splitlines()
        assert len(lines) == 3
        assert json.loads((tmp_path / "config.json").read_text())["epochs"] == 3

    def test_unknown_config_key(self, family_run):
        run = family_run("config-key")[1]
        assert run.code == 1
        assert "bogus" in run.stderr

    def test_malformed_config_file(self, family_run):
        run = family_run("config-json")[1]
        assert run.code == 1
        assert "JSON" in run.stderr

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

    def test_defaults_are_the_library_defaults(self):
        # training keys reach TrainConfig by name, so their defaults must agree
        defaults = {key: default for key, (default, _) in SCHEMA.items()}
        train_config, (ratios, bins) = cli._check(defaults)
        assert train_config == TrainConfig()
        evaluate_params = inspect.signature(evaluate).parameters
        assert ratios == evaluate_params["tail_ratios"].default
        assert bins == evaluate_params["ece_bins"].default

    def test_every_train_config_field_is_a_setting(self, monkeypatch):
        # a field that no key sets is a knob that only tests can reach
        names = set()

        class Recording(TrainConfig):
            def __init__(self, **settings):
                names.update(settings)
                super().__init__(**settings)

        monkeypatch.setattr(cli, "TrainConfig", Recording)
        cli._check({key: default for key, (default, _) in SCHEMA.items()})
        fields = {f.name for f in dataclasses.fields(TrainConfig)}
        assert sorted(fields - names) == []

    def test_command_required(self):
        assert main([]) == 1


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

    def test_no_tail_labels_leave_tail_columns_empty(self, tmp_path, fast_data):
        lines = (fast_data / "test.csv").read_text().splitlines()
        head = tmp_path / "head_only.csv"
        head.write_text("\n".join(line for line in lines if line[-2:] not in (",2", ",3")) + "\n")
        csvs = {"train_csv": str(fast_data / "train.csv"), "test_csv": str(head)}
        args = ["sweep", "--axis", "ratio", "--grid", "plain"]
        assert main(args + flags(tmp_path / "s", epochs="1", runs="2", **csvs)) == 0
        with open(tmp_path / "s" / "sweep_ratio.csv", newline="") as fh:
            row = list(csv.DictReader(fh))[0]
        assert row["acc_tail_mean"] == row["acc_tail_std"] == ""
        assert float(row["acc_mean"]) >= 0.0

    def test_parallel_matches_serial(self, tmp_path):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        base = ["sweep", "--axis", "particles", "--grid", "1,2"]
        assert main(base + self.sweep_flags(serial)) == 0
        assert main(base + self.sweep_flags(parallel) + ["--jobs", "2"]) == 0
        assert (serial / "sweep_particles.csv").read_bytes() == (
            parallel / "sweep_particles.csv"
        ).read_bytes()

    def test_pool_has_no_more_workers_than_cells(self, tmp_path, monkeypatch):
        # the process pool starts all its workers up front, spawned, not forked
        # under BLAS threads; this one starts none
        workers = []

        class Recording:
            def __init__(self, max_workers, mp_context):
                assert mp_context.get_start_method() == "spawn"
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        args = ["sweep", "--axis", "particles", "--grid", "1,2", "--jobs", "4"]
        assert main(args + self.sweep_flags(tmp_path)) == 0
        assert workers == [2]
        # one cell runs in this process: no pool is made
        args = ["sweep", "--axis", "particles", "--grid", "2", "--jobs", "4"]
        assert main(args + self.sweep_flags(tmp_path / "one")) == 0
        assert workers == [2]

    def test_empty_grid(self, tmp_path, capsys):
        args = ["sweep", "--axis", "ratio", "--grid", ","] + self.sweep_flags(tmp_path)
        assert main(args) == 1
        assert "empty" in capsys.readouterr().err

    def test_bad_grid_value(self, tmp_path, capsys):
        args = (
            ["sweep", "--axis", "ratio", "--grid", "bogus"]
            + self.sweep_flags(tmp_path)
        )
        assert main(args) == 1
        assert "error: ratio: unknown form 'bogus', pick one of (" in capsys.readouterr().err

    @pytest.mark.parametrize("axis,value,code,start", [
        ("ratio", "bogus", 1, "error: ratio: unknown form 'bogus'"),
        ("repulsion", "maybe", 1, "error: repulsion: must be 'on' or 'off', got 'maybe'"),
        ("particles", "0", 1, "error: particles: must be >= 1, got 0"),
        ("utility", "missing.csv", 2, "runtime error: "),
    ])
    def test_bad_grid_value_fails_as_its_flag(
        self, tmp_path, monkeypatch, capsys, axis, value, code, start
    ):
        # a grid value is checked by its flag's owner: the same line, the same exit code
        monkeypatch.chdir(tmp_path)
        flag = ["--" + axis, value]
        assert main(["train"] + self.sweep_flags(tmp_path / "t") + flag) == code
        flag_err = capsys.readouterr().err
        args = ["sweep", "--axis", axis, "--grid", value] + self.sweep_flags(tmp_path / "s")
        assert main(args) == code
        assert capsys.readouterr().err == flag_err
        assert flag_err.startswith(start) and flag_err.count("\n") == 1
        assert not (tmp_path / "t").exists() and not (tmp_path / "s").exists()

    def test_ratio_axis_takes_every_form(self, tmp_path):
        # power is swept as --ratio power runs, with --gamma
        args = ["sweep", "--axis", "ratio", "--grid", "power,linear", "--gamma", "0.5"]
        assert main(args + self.sweep_flags(tmp_path)) == 0
        with open(tmp_path / "sweep_ratio.csv", newline="") as fh:
            power, linear = csv.DictReader(fh)
        assert (power["ratio"], linear["ratio"]) == ("power", "linear")
        assert 0.0 < float(power["growth_pct"]) < float(linear["growth_pct"])
        assert float(power["weight_first"]) > 0.0 and float(power["weight_last"]) > 0.0

    def test_utility_axis_takes_a_csv(self, tmp_path):
        # the identity CSV is the one-hot utility, so its cell scores as one-hot's does
        utility = tmp_path / "u4.csv"
        utility.write_text("1,0,0,0\n0,1,0,0\n0,0,1,0\n0,0,0,1\n")
        args = ["sweep", "--axis", "utility", "--grid", f"{utility},one-hot"]
        assert main(args + self.sweep_flags(tmp_path / "s")) == 0
        with open(tmp_path / "s" / "sweep_utility.csv", newline="") as fh:
            from_csv, built = csv.DictReader(fh)
        assert from_csv.pop("utility") == str(utility)
        assert built.pop("utility") == "one-hot"
        assert from_csv == built

    @pytest.mark.parametrize("grid", ["0", "x", "1.5", "2,-1"])
    def test_bad_particles_grid(self, tmp_path, grid, capsys):
        args = ["sweep", "--axis", "particles", "--grid", grid] + self.sweep_flags(tmp_path / "o")
        assert main(args) == 1
        assert "particles" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_axis(self, tmp_path):
        args = ["sweep", "--axis", "bogus"] + self.sweep_flags(tmp_path)
        assert main(args) == 1

    def test_csv_data_is_parsed_once_per_sweep(self, tmp_path, fast_data):
        # CSV data ignores the seed: every run of every cell shares one parse
        csvs = ["--train-csv", str(fast_data / "train.csv"),
                "--test-csv", str(fast_data / "test.csv")]
        args = ["sweep", "--axis", "ratio", "--grid", "linear,plain", "--runs", "3"]
        run = run_in_process(tmp_path, args + flags(tmp_path / "s") + csvs)
        assert run.code == 0
        assert run.calls["load_csv"] == 2

    def test_synthetic_data_and_utility_are_built_once(self, tmp_path):
        # one data pair per run's seed, shared by the cells; one utility per cell
        utility = tmp_path / "u4.csv"
        utility.write_text("1,0,0,0\n0,1,0,0\n0,0,1,0\n0,0,0,1\n")
        args = ["sweep", "--axis", "ratio", "--grid", "linear,plain", "--runs", "2"]
        run = run_in_process(tmp_path, args + flags(tmp_path / "s", utility=str(utility)))
        assert run.code == 0
        assert (run.calls["generate_synthetic"], run.calls["load_matrix"]) == (2, 2)

    def test_every_cell_is_built_before_any_trains(self, tmp_path):
        # the power cell's class weights overflow: the linear cell before it never trains
        args = ["sweep", "--axis", "ratio", "--grid", "linear,power", "--gamma", "300"]
        run = run_in_process(tmp_path, args + self.sweep_flags(tmp_path / "s"))
        assert run.code == 1
        assert "gamma 300.0 overflows the power form" in run.stderr
        assert not (tmp_path / "s").exists()
        assert run.calls["repeat_runs"] == 0


GOOD_HEADER = (
    b'{"hidden": [3], "input_dim": 2, "n_particles": 1,'
    b' "num_classes": 2, "param_count": 17, "version": 1}'
)

THREE_CLASS_HEADER = (
    b'{"hidden": [3], "input_dim": 2, "n_particles": 1,'
    b' "num_classes": 3, "param_count": 21, "version": 1}'
)

FIVE_FEATURES = b"f0,f1,f2,f3,f4,label\n1,2,3,4,5,0\n5,4,3,2,1,1\n"

TWO_CLASSES = b"f0,f1,f2,label\n" + b"".join(b"%d.0,0.5,-1.0,%d\n" % (i, i % 2) for i in range(8))


def three_features(*labels):
    """A training CSV with one 3-feature row per label."""
    rows = (b"%d.0,0.5,-1.0,%d\n" % (i, y) for i, y in enumerate(labels))
    return b"f0,f1,f2,label\n" + b"".join(rows)


# family -> (command, file name, file bytes, extra flags naming the file, stderr text)
MALFORMED = {
    "config-json": ("train", "cfg.json", b"{not json", ["--config"], "JSON"),
    "config-key": ("train", "cfg.json", b'{"bogus": 1}', ["--config"], "bogus"),
    # JSON would keep the last of the two values without a word
    "config-duplicate-key": ("train", "cfg.json", b'{"epochs": 1, "epochs": 2}', ["--config"],
                             "config key 'epochs' is named twice"),
    # past the JSON decoder's recursion limit
    "config-deeply-nested": (
        "train", "cfg.json", b"[" * 200_000 + b"]" * 200_000, ["--config"], "JSON"
    ),
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
    "checkpoint-header-deeply-nested": (
        "evaluate", "x.ckpt", CHECKPOINT_MAGIC + b"\n" + b"[" * 200_000 + b"]" * 200_000 + b"\n",
        ["--checkpoint"], "line 2",
    ),
    "checkpoint-payload": (
        "evaluate", "x.ckpt", CHECKPOINT_MAGIC + b"\n" + GOOD_HEADER + b"\n\0\0\0",
        ["--checkpoint"], "payload",
    ),
    "checkpoint-non-finite": (
        "evaluate",
        "x.ckpt",
        CHECKPOINT_MAGIC + b"\n" + GOOD_HEADER + b"\n"
        + np.array([1.0, np.nan] + [0.0] * 16, dtype="<f8").tobytes(),
        ["--checkpoint"],
        "finite",
    ),
    # an ensemble weighs each of its M particles 1/M; the weight block holds nothing else
    "checkpoint-weights-nan": (
        "evaluate",
        "x.ckpt",
        CHECKPOINT_MAGIC + b"\n" + GOOD_HEADER + b"\n"
        + np.array([np.nan] + [0.0] * 17, dtype="<f8").tobytes(),
        ["--checkpoint"],
        "1/M",
    ),
    "checkpoint-weights-uneven": (
        "evaluate",
        "x.ckpt",
        CHECKPOINT_MAGIC + b"\n"
        + THREE_CLASS_HEADER.replace(b'"n_particles": 1', b'"n_particles": 2') + b"\n"
        + np.array([0.75, 0.25] + [0.0] * 42, dtype="<f8").tobytes(),
        ["--test-csv", "c.csv", "--checkpoint"],
        "1/M",
    ),
    "csv-non-numeric": (
        "train", "data.csv", b"f0,label\n1.0,0\nabc,1\n", ["--train-csv"], "line 3"
    ),
    "csv-non-finite": (
        "train", "data.csv", b"f0,f1,label\n1.0,2.0,0\nnan,1.0,1\n1e999,0.0,1\n",
        ["--train-csv"], "line 3",
    ),
    "csv-row-after-blank-lines": (
        "train", "data.csv", b"f0,label\n1.0,0\n\n\r\n2.0,x\n", ["--train-csv"],
        "line 5: label 'x' is not an integer",
    ),
    # float() reads 1_0 as 10; the CSV format has no digit separators
    "csv-digit-separator": (
        "evaluate", "d.csv", b"f0,f1,label\n1.0,0.5,0\n1_0,0.5,1\n2.0,0.5,2\n",
        ["--checkpoint", "model.ckpt", "--test-csv"], "line 3: non-numeric feature",
    ),
    "csv-label-beyond-int64": (
        "train", "data.csv", b"f0,label\n1.0,0\n2.0,99999999999999999999\n", ["--train-csv"],
        "line 3: label '99999999999999999999' is not an integer",
    ),
    "utility-csv": ("train", "u.csv", b"1,0,0,0\nx,1,0,0\n", ["--utility"], "line 2"),
    # as in a data CSV, float() reading 1_0 as 10 does not make it a number
    "utility-digit-separator": (
        "train", "u.csv", b"1,0,0,0\n0,1_0,0,0\n0,0,1,0\n0,0,0,1\n", ["--utility"],
        "line 2: non-numeric utility in ['0', '1_0', '0', '0']\n",
    ),
    # the csv module rejects a field over 128 KiB
    "csv-oversized-header-field": (
        "train", "data.csv", b'f0,"' + b"a" * 200_000 + b'",label\n1.0,2.0,0\n', ["--train-csv"],
        "line 1: field larger than field limit",
    ),
    "utility-oversized-field": (
        "train", "u.csv", b"1,0,0\n1,\"" + b"0" * 200_000 + b'",0\n', ["--utility"],
        "line 2: field larger than field limit",
    ),
    "utility-diagonal": (
        "train", "u.csv", b"1,0,0,0\n0,1,0,0\n0,0,1,0\n0,2,0,1\n", ["--utility"], "line 4"
    ),
    "csv-feature-count-train": (
        "train", "b.csv", FIVE_FEATURES, ["--train-csv", "a.csv", "--test-csv"],
        "has 5 features, a.csv has 3",
    ),
    "csv-feature-count-evaluate": (
        "evaluate", "b.csv", FIVE_FEATURES, ["--checkpoint", "model.ckpt", "--test-csv"],
        "has 5 features, model.ckpt has 2",
    ),
    # head/medium/tail regions need K >= 3; generate-data alone takes 2 classes
    "two-classes-train": (
        "train", "two.csv", TWO_CLASSES, ["--test-csv", "two.csv", "--train-csv"],
        "evaluation needs K >= 3 classes, got 2",
    ),
    "two-classes-synthetic": (
        "train", None, None, ["--classes", "2"], "classes: evaluation needs K >= 3"
    ),
    "two-classes-evaluate": (
        "evaluate", "two.ckpt", CHECKPOINT_MAGIC + b"\n" + GOOD_HEADER + b"\n"
        + np.array([1.0] + [0.0] * 17, dtype="<f8").tobytes(),
        ["--checkpoint"], "evaluation needs K >= 3 classes, got 2",
    ),
    "two-classes-sweep": (
        "sweep", None, None, ["--classes", "2", "--axis", "ratio"], "K >= 3"
    ),
    "sweep-without-test-csv": (
        "sweep", None, None, ["--train-csv", "a.csv", "--axis", "ratio"], "--test-csv"
    ),
    "generate-data-train-csv": ("generate-data", None, None, ["--train-csv", "a.csv"],
                                "generate-data needs synthetic settings, not CSVs"),
    "generate-data-test-csv": (
        "generate-data", None, None, ["--test-csv", "a.csv"],
        "generate-data needs synthetic settings, not CSVs",
    ),
    "train-test-csv-alone": (
        "train", None, None, ["--test-csv", "a.csv"], "--test-csv needs --train-csv"
    ),
    "sweep-test-csv-alone": (
        "sweep", None, None, ["--test-csv", "a.csv", "--axis", "ratio"],
        "--test-csv needs --train-csv",
    ),
    # synthetic test data must fit the checkpoint (3 classes, 2 features): checked before a draw
    "evaluate-synthetic-classes": (
        "evaluate", None, None, ["--checkpoint", "model.ckpt"],
        "error: classes: synthetic test data has 4 classes, model.ckpt has 3\n",
    ),
    "evaluate-synthetic-features": (
        "evaluate", None, None, ["--checkpoint", "model.ckpt", "--classes", "3"],
        "error: dim: synthetic test data has 3 features, model.ckpt has 2\n",
    ),
    "evaluate-train-csv": (
        "evaluate", None, None, ["--checkpoint", "model.ckpt", "--train-csv", "a.csv"],
        "evaluate reads --test-csv, not --train-csv",
    ),
    "evaluate-both-csvs": (
        "evaluate", None, None,
        ["--checkpoint", "model.ckpt", "--test-csv", "c.csv", "--train-csv", "a.csv"],
        "evaluate reads --test-csv, not --train-csv",
    ),
    "train-utility-classes": (
        "train", "u2.csv", b"1,0\n0,1\n", ["--utility"], "has 2 classes, data has 4"
    ),
    # the utility is built before any cell trains or --out exists
    "sweep-utility-classes": (
        "sweep", "u3.csv", b"1,0,0\n0,1,0\n0,0,1\n", ["--axis", "ratio", "--utility"],
        "has 3 classes, data has 4",
    ),
    "generate-data-both-csvs": (
        "generate-data", None, None, ["--train-csv", "a.csv", "--test-csv", "a.csv"],
        "generate-data needs synthetic settings, not CSVs",
    ),
    # training would reject these CSVs without naming the file; the CLI names it first
    "train-csv-empty-class": (
        "train", "gap.csv", three_features(0, 0, 2), ["--train-csv"],
        "classes without training samples: [1]",
    ),
    # K is the largest label + 1: the message names 10 of the missing ids, then counts
    "train-csv-stray-label": (
        "train", "stray.csv", three_features(0, 1, 2, 3_000_000), ["--train-csv"],
        "classes without training samples: [3, 4, 5, 6, 7, 8, 9, 10, 11, 12] and 2999987 more",
    ),
    "train-csv-one-class": (
        "train", "one.csv", three_features(0, 0, 0), ["--train-csv"],
        "training needs at least 2 classes",
    ),
    "sweep-csv-empty-class": (
        "sweep", "gap.csv", three_features(0, 0, 1, 3),
        ["--axis", "ratio", "--test-csv", "a.csv", "--train-csv"],
        "classes without training samples: [2]",
    ),
    # text inputs are UTF-8 whatever the locale; a byte that does not decode names its line
    "not-utf8-train-csv": (
        "train", "data.csv", b"f0,label\n1.0,0\n\xff2.0,1\n", ["--train-csv"],
        "line 3: not UTF-8 text",
    ),
    "not-utf8-test-csv": (
        "evaluate", "d.csv", b"f0,f1,label\n1.0,0.5,0\n2.0,\xfe0.5,1\n",
        ["--checkpoint", "model.ckpt", "--test-csv"], "line 3: not UTF-8 text",
    ),
    "not-utf8-utility": (
        "train", "u.csv", b"1,0,0,0\n0,1,0,0\n0,0,\xff1,0\n0,0,0,1\n", ["--utility"],
        "line 3: not UTF-8 text",
    ),
    "not-utf8-config": (
        "train", "cfg.json", b'{\n"seed": 0,\n"out": "\xff"\n}\n', ["--config"],
        "line 3: not UTF-8 text",
    ),
    # a lone CR ends a line too
    "not-utf8-utility-cr": (
        "train", "u.csv", b"1,0,0\r0,1,0\r0,0,\xff1\r", ["--utility"], "line 3: not UTF-8 text"
    ),
    "not-utf8-config-cr": (
        "train", "cfg.json", b'{\r"seed": 0,\r"out": "\xff"\r}\r', ["--config"],
        "line 3: not UTF-8 text",
    ),
    "synthetic-empty-class": (
        "generate-data", None, None, ["--n-max", "100", "--imbalance", "300"],
        "n_max=100 and imbalance=300.0 leave classes [3] without samples",
    ),
    # separation * v overflows a 16-d class mean: rejected while the data is made
    "generate-data-overflowing-separation": (
        "generate-data", None, None, ["--dim", "16", "--separation", "1e308"],
        "error: separation 1e+308 overflows the class means\n",
    ),
    "train-overflowing-separation": (
        "train", None, None, ["--dim", "16", "--separation", "1e308"],
        "error: separation 1e+308 overflows the class means\n",
    ),
    # 1000**103 is past float64: rejected while the class weights are made
    "train-overflowing-gamma": (
        "train", None, None, ["--n-max", "1000", "--ratio", "power", "--gamma", "103"],
        "error: gamma 103.0 overflows the power form\n",
    ),
    # 1 / utility_scale overflows the loss's utility term before the first step
    "train-overflowing-utility-scale": (
        "train", None, None, ["--utility-scale", "5e-324"],
        "error: utility_scale 5e-324 overflows the utility term\n",
    ),
    # only the tail-sensitive cell's term overflows: the one-hot cell before it never trains
    "sweep-overflowing-utility-scale": (
        "sweep", None, None,
        ["--axis", "utility", "--grid", "one-hot,tail-sensitive", "--rho", "1e306",
         "--utility-scale", "1e-3", "--runs", "1", "--epochs", "3"],
        "error: utility_scale 0.001 overflows the utility term\n",
    ),
    # a size past numpy's largest array is rejected before that array is requested
    "generate-data-dim-past-int64": (
        "generate-data", None, None, ["--dim", "1000000000000000000000"],
        "error: dim: the class means need a (4, 1000000000000000000000) array,"
        " larger than numpy allows\n",
    ),
    "generate-data-dim-past-numpy": (
        "generate-data", None, None, ["--dim", "4611686018427387904"],
        "error: dim: the class means need a (4, 4611686018427387904) array,"
        " larger than numpy allows\n",
    ),
    "generate-data-test-per-class-past-int64": (
        "generate-data", None, None, ["--test-per-class", "100000000000000000000"],
        "error: test_per_class: the test features need a (400000000000000000000, 3) array,"
        " larger than numpy allows\n",
    ),
    "generate-data-test-per-class-past-numpy": (
        "generate-data", None, None, ["--test-per-class", "4611686018427387904"],
        "error: test_per_class: the test features need a (18446744073709551616, 3) array,"
        " larger than numpy allows\n",
    ),
    # the counts are cast to int64 only once n_max is known to fit
    "generate-data-n-max-past-int64": (
        "generate-data", None, None, ["--n-max", "100000000000000000000"],
        "error: n_max: class 0's labels need a (100000000000000000000,) array,"
        " larger than numpy allows\n",
    ),
    "generate-data-n-max-int64-max": (
        "generate-data", None, None, ["--n-max", "9223372036854775807", "--imbalance", "1"],
        "error: n_max: class 0's labels need a (9223372036854775807,) array,"
        " larger than numpy allows\n",
    ),
    "train-dim-past-numpy": (
        "train", None, None, ["--dim", "4611686018427387904"],
        "error: dim: the class means need a (4, 4611686018427387904) array,"
        " larger than numpy allows\n",
    ),
    # the network's size is known from K, D and the settings: rejected before a draw
    "train-hidden-past-numpy": (
        "train", None, None, ["--hidden", "100000000000000000000", "--epochs", "1"],
        "error: hidden: a particle's parameters need a (800000000000000000004,) array,"
        " larger than numpy allows\n",
    ),
    "train-particles-past-numpy": (
        "train", None, None, ["--particles", "4611686018427387904", "--epochs", "1"],
        "error: particles: the particles need a (4611686018427387904, 36) array,"
        " larger than numpy allows\n",
    ),
    "sweep-particles-past-numpy": (
        "sweep", None, None, ["--axis", "particles", "--grid", "2,4611686018427387904"],
        "error: particles: the particles need a (4611686018427387904, 36) array,"
        " larger than numpy allows\n",
    ),
}

# a checkpoint of two identical particles (param_distance 0) of the 2-3-3 network:
# input weights 1, output weights 1e308, biases 0. The logits of an input (i, 0.5)
# are 3e308 * tanh(i + 0.5), which overflows from i = 1 on, and inf - inf in the
# log-softmax makes the row's log-probs NaN
OVERFLOWING_LOGITS = (
    CHECKPOINT_MAGIC + b"\n" + THREE_CLASS_HEADER.replace(b'"n_particles": 1', b'"n_particles": 2')
    + b"\n" + np.array([0.5, 0.5] + 2 * ([1.0] * 6 + [0.0] * 3 + [1e308] * 9 + [0.0] * 3),
                       dtype="<f8").tobytes()
)

# family -> (command, file name, file bytes, extra flags naming the file, stderr line
# with {path} for the file's path): inputs that parse but whose numbers overflow
NUMERIC = {
    "evaluate-overflowing-logits": (
        "evaluate", "d.csv", b"f0,f1,label\n0.0,0.5,0\n\n1.0,0.5,1\n2.0,0.5,2\n",
        ["--checkpoint", "huge.ckpt", "--test-csv"],
        "numeric error: non-finite log-probabilities at test row 1 ({path}: line 4)",
    ),
    # the row is named by its index within its block: here the second of two
    "evaluate-overflowing-logits-second-block": (
        "evaluate", "d.csv", b"f0,f1,label\n" + b"0.0,0.5,0\n" * 1500 + b"\n1.0,0.5,1\n"
        + b"0.0,0.5,2\n" * 599,
        ["--checkpoint", "huge.ckpt", "--test-csv"],
        "numeric error: non-finite log-probabilities at test row 1500 ({path}: line 1503)",
    ),
    # the first step overflows the parameters; the run fails before it writes
    "train-overflowing-step": (
        "train", None, None, ["--learning-rate", "1e308", "--weight-decay", "1"],
        "numeric error: epoch 0, batch 1: the steps left non-finite parameters",
    ),
    "sweep-overflowing-step": (
        "sweep", None, None,
        ["--axis", "particles", "--grid", "2", "--runs", "1", "--learning-rate", "1e308",
         "--weight-decay", "1"],
        "numeric error: epoch 0, batch 1: the steps left non-finite parameters",
    ),
    # one particle fails with the same one line: nothing warns of its 0 spread term
    "train-overflowing-step-one-particle": (
        "train", None, None,
        ["--particles", "1", "--learning-rate", "1e308", "--weight-decay", "1"],
        "numeric error: epoch 0, batch 1: non-finite log-probabilities at dataset row 38",
    ),
    # the run fails after its first checkpoints were taken: they are not written either
    "train-failing-after-checkpoints": (
        "train", None, None,
        ["--epochs", "100", "--checkpoint-every", "1", "--learning-rate", "3",
         "--weight-decay", "100", "--momentum", "0"],
        "numeric error: epoch 11, batch 1: non-finite loss",
    ),
}

# inputs beside every family's file, for the families that need two files: a
# 4-class training CSV with 3 features, a 3-class checkpoint of a 2-input network
# and a test CSV that fits it, and a checkpoint of that network that overflows
HELPERS = {
    "a.csv": b"f0,f1,f2,label\n" + b"".join(b"%d.0,0.5,-1.0,%d\n" % (i, i % 4) for i in range(8)),
    "c.csv": b"f0,f1,label\n" + b"".join(b"%d.0,0.5,%d\n" % (i, i % 3) for i in range(6)),
    "model.ckpt": CHECKPOINT_MAGIC + b"\n" + THREE_CLASS_HEADER + b"\n"
    + np.array([1.0] + [0.0] * 21, dtype="<f8").tobytes(),
    "huge.ckpt": OVERFLOWING_LOGITS,
}


def family_argv(tmp_path, command, name, blob, extra):
    """The CLI arguments of one family, run in tmp_path beside the helpers, with the
    path of the family's file (if any) as the last flag value."""
    for helper, content in HELPERS.items():
        (tmp_path / helper).write_bytes(content)
    if name is not None:
        (tmp_path / name).write_bytes(blob)
        extra = extra + [str(tmp_path / name)]
    return [command, *flags(tmp_path / "out"), *extra]


# the cli bindings a run counts the calls of; a draw counts once it returns data
COUNTED = ("load_checkpoint", "load_csv", "CsvRows", "load_matrix", "train", "repeat_runs")


class Run(NamedTuple):
    code: int
    stderr: str
    # name -> calls: trainer.batch_loss, generate_synthetic (completed) and COUNTED
    calls: dict


def run_in_process(where, argv) -> Run:
    """One CLI run in this process, with where as the working directory."""
    calls = dict.fromkeys(("batch_loss", "generate_synthetic", *COUNTED), 0)
    real_draw = cli.generate_synthetic

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    def draw(*args, **kwargs):
        data = real_draw(*args, **kwargs)
        calls["generate_synthetic"] += 1
        return data

    stderr = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stderr(stderr), \
            contextlib.redirect_stdout(io.StringIO()):
        patch.setattr(trainer, "batch_loss", counted("batch_loss", trainer.batch_loss))
        patch.setattr(cli, "generate_synthetic", draw)
        for name in COUNTED:
            patch.setattr(cli, name, counted(name, getattr(cli, name)))
        patch.chdir(where)
        code = main(argv)
    return Run(code, stderr.getvalue(), calls)


@pytest.fixture(scope="module")
def family_run(tmp_path_factory):
    """family -> (its directory, its one in-process run): the first test of a family
    runs it, the others read that run."""
    runs = {}

    def get(family):
        if family not in runs:
            where = tmp_path_factory.mktemp(family)
            argv = family_argv(where, *{**MALFORMED, **NUMERIC}[family][:4])
            runs[family] = where, run_in_process(where, argv)
        return runs[family]

    return get


@pytest.mark.parametrize("family", sorted(NUMERIC))
def test_numeric_failures_exit_2_with_one_line(family_run, family):
    command, name, blob, extra, line = NUMERIC[family]
    where, run = family_run(family)
    assert run.code == 2, run.stderr
    # no warning (an error under pytest's filterwarnings) and no second line
    assert run.stderr == (line if name is None else line.format(path=where / name)) + "\n"
    assert not (where / "out").exists()


@pytest.mark.parametrize("family", sorted(MALFORMED))
def test_malformed_inputs_exit_1_without_traceback(family_run, family):
    command, name, blob, extra, needle = MALFORMED[family]
    where, run = family_run(family)
    assert run.code == 1, run.stderr
    # one line, no warning (an error under pytest's filterwarnings)
    assert run.stderr.startswith("error: ") and run.stderr.endswith("\n"), run.stderr
    assert run.stderr.count("\n") == 1 and needle in run.stderr
    if name is not None:
        assert name in run.stderr
    # rejected before any work: no output directory
    assert not (where / "out").exists()


@pytest.mark.parametrize("family", [*sorted(MALFORMED), "out-under-a-file"])
def test_a_rejected_input_trains_nothing(tmp_path, family_run, family):
    if family in MALFORMED:
        run = family_run(family)[1]
    else:
        (tmp_path / "afile").write_bytes(b"not a directory\n")
        run = run_in_process(tmp_path, ["train", *flags(tmp_path / "afile" / "sub")])
    assert run.code == 1 and run.stderr.startswith("error: ")
    # every rule the config alone decides runs before synthetic data is drawn
    assert (run.calls["batch_loss"], run.calls["generate_synthetic"]) == (0, 0)


DATA_FLAG_ROWS = [
    "sweep-without-test-csv", "evaluate-train-csv", "evaluate-both-csvs",
    "train-test-csv-alone", "sweep-test-csv-alone", "generate-data-train-csv",
    "generate-data-test-csv", "generate-data-both-csvs",
]


@pytest.mark.parametrize("family", DATA_FLAG_ROWS)
def test_a_data_flag_rule_reads_no_file(family_run, family):
    # which CSV flags a command takes is known from the config alone
    run = family_run(family)[1]
    assert run.code == 1
    assert [run.calls[name] for name in ("load_csv", "CsvRows", "load_checkpoint")] == [0] * 3


def test_a_stray_label_is_one_short_line(family_run):
    command, name, blob, extra, needle = MALFORMED["train-csv-stray-label"]
    where, run = family_run("train-csv-stray-label")
    assert run.code == 1
    assert run.stderr == f"error: {where / name}: {needle}\n"
    assert len(run.stderr.encode()) < 1024


def test_the_module_entry_point_prints_the_in_process_line(tmp_path):
    # the one run of `python -m tailens.cli`: every other family runs in this process
    for family, code in (("csv-non-numeric", 1), ("evaluate-overflowing-logits", 2)):
        where = tmp_path / family
        where.mkdir()
        argv = family_argv(where, *{**MALFORMED, **NUMERIC}[family][:4])
        result = python("-m", "tailens.cli", *argv, cwd=where)
        run = run_in_process(where, argv)
        assert "Traceback" not in result.stderr
        assert (result.returncode, result.stderr) == (run.code, run.stderr)
        assert run.code == code
        assert not (where / "out").exists()


def test_csv_run_matches_golden_hashes(golden_run):
    # training and evaluating on generate-data's CSVs writes the default run's
    # pinned checkpoint, metrics and predictions
    default = golden.load()["default"]["files"]
    got = golden_run("csv")
    for name in ("train/ensemble.ckpt", "train/metrics.json", "eval/predictions.csv"):
        assert got[name]["sha256"] == default[name]["sha256"], name
    assert got["eval/metrics.json"]["sha256"] == default["train/metrics.json"]["sha256"]


def test_generated_csvs_match_golden_hashes(golden_run):
    # generate-data, the csv run's first call, writes the golden's data files
    assert golden.load()["csv"]["argv"][0][0] == "generate-data"
    want = {name: pinned for name, pinned in golden.load()["csv"]["files"].items()
            if name.startswith("data/")}
    got = {name: entry for name, entry in golden_run("csv").items() if name.startswith("data/")}
    assert {name: entry["sha256"] for name, entry in got.items()} == {
        name: pinned["sha256"] for name, pinned in want.items()
    }, golden.moved(want, got)


def test_import_leaves_the_process_pool_out(import_probe):
    # only sweep --jobs > 1 starts processes, so only it pays for the pool's import
    code, _, pool = import_probe
    assert (code, pool) == (0, False)


# (key, accepted, rejected): a boundary value and the first value past it.
# A str is typed as a flag; any other value goes in a --config file as JSON.
BOUNDARIES = [
    ("classes", "2", "1"),
    ("dim", "1", "0"),
    ("n_max", "4", "3"),  # synthetic data needs n_max >= classes (4 in FAST)
    ("imbalance", "1.0", "0.9999999999999999"),
    ("separation", "0.0", "-5e-324"),
    ("test_per_class", "1", "0"),
    ("train_csv", None, 5),
    ("test_csv", None, 5),
    ("hidden", "1,1", "1,0"),
    ("epochs", "1", "0"),
    ("batch_size", "1", "0"),
    ("learning_rate", "0.0", "-5e-324"),
    ("momentum", "0.0", "-5e-324"),
    ("momentum", "0.9999999999999999", "1.0"),
    ("weight_decay", "0.0", "-5e-324"),
    ("lr_decay_epochs", "1", "0"),
    ("lr_decay_factor", "1.0", "1.0000000000000002"),
    ("lr_decay_factor", "5e-324", "0.0"),
    ("anneal_stride", "5e-324", "0.0"),
    ("utility_scale", "5e-324", "0.0"),
    ("particles", "1", "0"),
    ("var_floor", "5e-324", "0.0"),
    ("repulsion", "off", "of"),
    ("ratio", "plain", "plan"),
    ("gamma", "0.0", "-5e-324"),
    ("beta", "5e-324", "0.0"),
    ("beta", "0.9999999999999999", "1.0"),
    ("utility", "u.csv", 1),
    ("rho", "0.0", "-5e-324"),
    ("utility_tail_ratio", "5e-324", "0.0"),
    ("utility_tail_ratio", "0.9999999999999999", "1.0"),
    ("ece_bins", "1", "0"),
    ("tail_ratios", "5e-324,0.9999999999999999", "0.5,1.0"),
    ("checkpoint_every", "0", "-1"),
    ("runs", "1", "0"),
    ("seed", "0", "-1"),
    ("jobs", "1", "0"),
    ("out", "out", 1),
    ("out", "out", ""),
]

FLOAT_KEYS = (
    "imbalance", "separation", "learning_rate", "momentum", "weight_decay",
    "lr_decay_factor", "anneal_stride", "utility_scale", "var_floor", "gamma",
    "beta", "rho", "utility_tail_ratio",
)

NON_FINITE = [(key, v) for key in FLOAT_KEYS for v in ("nan", "inf", "-inf", float("nan"))]
NON_FINITE.append(("tail_ratios", "0.5,nan"))


def generate_with(key, value):
    """The argv of generate-data into ./out (the default) with one key set, as a flag or
    in ./cfg.json, which this writes."""
    flag = key.replace("_", "-")
    # without a FAST flag for the key, since flags beat the config file
    args = ["generate-data"] + [f"--{k}={v}" for k, v in FAST.items() if k != flag]
    if isinstance(value, str):
        args.append(f"--{flag}={value}")
    else:
        Path("cfg.json").write_text(json.dumps({key: value}))
        args += ["--config", "cfg.json"]
    return args


def test_every_key_has_a_boundary_row():
    assert {row[0] for row in BOUNDARIES} == set(SCHEMA)
    assert set(FLOAT_KEYS) == {k for k, (default, _) in SCHEMA.items() if type(default) is float}


@pytest.mark.parametrize("key,accepted,rejected", BOUNDARIES)
def test_key_boundary(tmp_path, monkeypatch, fast_data, key, accepted, rejected):
    monkeypatch.chdir(tmp_path)
    run = run_in_process(tmp_path, generate_with(key, rejected))
    assert run.code == 1 and re.match(rf"error: {re.escape(key)}\b", run.stderr)
    assert run.calls["generate_synthetic"] == 0  # rejected before any data is drawn
    assert not Path("out").exists()

    assert main(generate_with(key, accepted)) == 0
    default = json.loads((fast_data / "config.json").read_text())[key]
    expected = accepted if default is None or isinstance(default, str) else type(default)(accepted)
    echoed = json.loads(Path("out/config.json").read_text())[key]
    assert echoed == expected and type(echoed) is type(expected)


@pytest.mark.parametrize("command", ["generate-data", "train", "sweep"])
def test_out_naming_a_file_is_rejected_before_any_work(tmp_path, command):
    path = tmp_path / "afile"
    path.write_bytes(b"not a directory\n")
    extra = ["--axis", "particles"] if command == "sweep" else []
    rule = "must be non-empty and a writable directory or a new path under one"
    for out in (path, path / "sub"):  # a file, and a path under one
        run = run_in_process(tmp_path, [command, *flags(out), *extra])
        assert run.code == 1
        assert run.stderr == f"error: out: {rule}, got {str(out)!r}\n"
        work = ("generate_synthetic", "train", "repeat_runs")
        assert [run.calls[name] for name in work] == [0] * 3
    assert path.read_bytes() == b"not a directory\n"


@pytest.mark.parametrize("key,value", NON_FINITE)
def test_non_finite_values_rejected(tmp_path, monkeypatch, capsys, key, value):
    monkeypatch.chdir(tmp_path)
    assert main(generate_with(key, value)) == 1
    assert key in capsys.readouterr().err
    assert not Path("out").exists()
