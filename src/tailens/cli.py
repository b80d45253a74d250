"""Command-line front end: generate-data, train, evaluate, sweep.

Configuration comes from built-in defaults, overridden by an optional JSON
config file (--config), overridden by explicit flags. Unknown file keys are
hard errors and nothing runs until every value validates. The merged
effective config is echoed to <out>/config.json. Exit codes: 0 success,
1 validation/input/parse error, 2 runtime or numeric error.
"""

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .dataset import TailSplit, generate_synthetic, load_csv, save_csv
from .decision import write_predictions_csv
from .ensemble import load_checkpoint, save_checkpoint
from .errors import InputError, NumericError, ParseError, ValidationError
from .metrics import report_to_json, write_summary_csv
from .rebalance import FORMS, DiscrepancySpec, class_weights, growth_rate
from .trainer import TrainConfig, evaluate, repeat_runs, train, write_train_log
from .utility import load_matrix, one_hot, tail_sensitive


def _typed(kind, name, value):
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if kind is int and isinstance(value, float) and float(value).is_integer():
        value = int(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValidationError(f"{name}: expected {kind.__name__}, got {value!r}")
    return value


def _int_min(lo):
    def parse(name, value):
        value = _typed(int, name, value)
        if value < lo:
            raise ValidationError(f"{name}: must be >= {lo}, got {value}")
        return value

    return parse


def _float_min(lo, strict=False):
    def parse(name, value):
        value = _typed(float, name, value)
        if value < lo or (strict and value == lo):
            op = ">" if strict else ">="
            raise ValidationError(f"{name}: must be {op} {lo}, got {value}")
        return value

    return parse


def _float_open01(name, value):
    value = _typed(float, name, value)
    if not 0.0 < value < 1.0:
        raise ValidationError(f"{name}: must be in (0, 1), got {value}")
    return value


def _momentum(name, value):
    value = _typed(float, name, value)
    if not 0.0 <= value < 1.0:
        raise ValidationError(f"{name}: must be in [0, 1), got {value}")
    return value


def _choice(*options):
    def parse(name, value):
        value = _typed(str, name, value)
        if value not in options:
            raise ValidationError(f"{name}: must be one of {options}, got {value!r}")
        return value

    return parse


def _string(name, value):
    return _typed(str, name, value)


def _opt_string(name, value):
    return None if value is None else _typed(str, name, value)


def _hidden_list(name, value):
    value = _typed(str, name, value)
    try:
        dims = tuple(int(v) for v in value.split(","))
    except ValueError:
        raise ValidationError(f"{name}: expected comma-separated ints, got {value!r}") from None
    if not dims or any(d < 1 for d in dims):
        raise ValidationError(f"{name}: layer sizes must be positive, got {value!r}")
    return value


def _epoch_list(name, value):
    value = _typed(str, name, value)
    if not value:
        return value
    try:
        epochs = tuple(int(v) for v in value.split(","))
    except ValueError:
        raise ValidationError(f"{name}: expected comma-separated ints, got {value!r}") from None
    if any(e < 1 for e in epochs):
        raise ValidationError(f"{name}: epochs must be >= 1, got {value!r}")
    return value


def _float_unit(name, value):
    value = _typed(float, name, value)
    if not 0.0 < value <= 1.0:
        raise ValidationError(f"{name}: must be in (0, 1], got {value}")
    return value


def _ratio_list(name, value):
    value = _typed(str, name, value)
    try:
        ratios = tuple(float(v) for v in value.split(","))
    except ValueError:
        raise ValidationError(f"{name}: expected comma-separated floats, got {value!r}") from None
    if not ratios or any(not 0.0 < r < 1.0 for r in ratios):
        raise ValidationError(f"{name}: ratios must lie in (0, 1), got {value!r}")
    return value


@dataclass(frozen=True)
class _Key:
    default: object
    parse: object
    help: str


SCHEMA = {
    "classes": _Key(10, _int_min(2), "number of classes for synthetic data"),
    "dim": _Key(16, _int_min(1), "synthetic feature dimension"),
    "n_max": _Key(1000, _int_min(1), "largest synthetic class size"),
    "imbalance": _Key(100.0, _float_min(1.0), "largest/smallest class size factor"),
    "separation": _Key(2.4, _float_min(0.0), "norm of synthetic class means"),
    "test_per_class": _Key(100, _int_min(1), "synthetic test samples per class"),
    "train_csv": _Key(None, _opt_string, "training CSV (overrides synthetic data)"),
    "test_csv": _Key(None, _opt_string, "test CSV (overrides synthetic data)"),
    "hidden": _Key("32", _hidden_list, "comma-separated hidden layer sizes"),
    "epochs": _Key(600, _int_min(1), "training epochs"),
    "batch_size": _Key(128, _int_min(1), "minibatch size"),
    "learning_rate": _Key(0.02, _float_min(0.0), "SGD step size"),
    "momentum": _Key(0.9, _momentum, "SGD momentum"),
    "weight_decay": _Key(1e-2, _float_min(0.0), "L2 regularizer coefficient"),
    "lr_decay_epochs": _Key("", _epoch_list, "comma-separated epochs that step the learning rate down"),
    "lr_decay_factor": _Key(0.1, _float_unit, "learning rate multiplier at each decay epoch"),
    "anneal_stride": _Key(40.0, _float_min(0.0, strict=True), "epochs for the spread bonus to decay by 1/e"),
    "utility_scale": _Key(1.0, _float_min(0.0, strict=True), "divisor of the utility term in the loss"),
    "particles": _Key(3, _int_min(1), "ensemble size"),
    "var_floor": _Key(1e-8, _float_min(0.0, strict=True), "variance floor in the spread bonus"),
    "repulsion": _Key("on", _choice("on", "off"), "annealed spread bonus on/off"),
    "ratio": _Key("linear", _choice(*FORMS), "class weighting form"),
    "gamma": _Key(1.0, _float_min(0.0), "power form exponent"),
    "beta": _Key(0.9999, _float_open01, "effective form decay"),
    "utility": _Key("one-hot", _string, "one-hot, tail-sensitive, or a CSV path"),
    "rho": _Key(1.0, _float_min(0.0), "tail-sensitive penalty"),
    "utility_tail_ratio": _Key(0.5, _float_open01, "tail share for the tail-sensitive utility"),
    "ece_bins": _Key(15, _int_min(1), "calibration bins"),
    "tail_ratios": _Key("0.25,0.5,0.75", _ratio_list, "tail shares for the false head rate"),
    "checkpoint_every": _Key(0, _int_min(0), "epochs between checkpoints (0: final only)"),
    "runs": _Key(5, _int_min(1), "repeated runs per sweep cell"),
    "seed": _Key(0, _int_min(0), "base random seed"),
    "jobs": _Key(1, _int_min(1), "parallel sweep workers"),
    "out": _Key("out", _string, "output directory"),
}

SWEEP_GRIDS = {
    "utility": ["one-hot", "tail-sensitive"],
    "ratio": ["linear", "effective", "sqrt", "log", "plain"],
    "repulsion": ["on", "off"],
    "particles": [str(m) for m in range(1, 9)],
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _build_parser():
    parser = _Parser(prog="tailens", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("generate-data", "train", "evaluate", "sweep"):
        p = sub.add_parser(command, description=f"tailens {command}")
        p.add_argument("--config", help="JSON config file")
        for key, spec in SCHEMA.items():
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, dest=key, default=None, help=spec.help)
        if command == "evaluate":
            p.add_argument("--checkpoint", required=True, help="ensemble checkpoint to load")
        if command == "sweep":
            p.add_argument(
                "--axis", required=True, choices=sorted(SWEEP_GRIDS), help="sweep axis"
            )
            p.add_argument("--grid", default=None, help="comma-separated axis values")
    return parser


def _effective_config(args) -> dict:
    config = {key: spec.default for key, spec in SCHEMA.items()}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValidationError(f"config file is not valid JSON: {err}") from None
        if not isinstance(loaded, dict):
            raise ValidationError("config file must hold a JSON object")
        for key, value in loaded.items():
            if key not in SCHEMA:
                raise ValidationError(f"unknown config key {key!r}")
            config[key] = value
    for key in SCHEMA:
        raw = getattr(args, key, None)
        if raw is not None:
            config[key] = raw
    for key, spec in SCHEMA.items():
        value = config[key]
        if value is None and spec.default is None:
            continue
        if isinstance(value, str) and spec.default is not None and not isinstance(spec.default, str):
            # flags arrive as strings; coerce numerics before validation
            try:
                value = type(spec.default)(value)
            except ValueError:
                raise ValidationError(
                    f"{key}: expected {type(spec.default).__name__}, got {value!r}"
                ) from None
        config[key] = spec.parse(key, value)
    return config


def _echo_config(config: dict, out_dir: str) -> None:
    with open(os.path.join(out_dir, "config.json"), "w") as fh:
        json.dump(config, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _train_config(config: dict, seed=None) -> TrainConfig:
    return TrainConfig(
        epochs=config["epochs"],
        batch_size=config["batch_size"],
        learning_rate=config["learning_rate"],
        momentum=config["momentum"],
        weight_decay=config["weight_decay"],
        anneal_stride=config["anneal_stride"],
        utility_scale=config["utility_scale"],
        n_particles=config["particles"],
        var_floor=config["var_floor"],
        seed=config["seed"] if seed is None else seed,
        ratio=DiscrepancySpec(
            form=config["ratio"], gamma=config["gamma"], beta=config["beta"]
        ),
        repulsion=config["repulsion"] == "on",
        hidden_dims=tuple(int(v) for v in config["hidden"].split(",")),
        checkpoint_every=config["checkpoint_every"],
        lr_decay_epochs=tuple(
            int(v) for v in config["lr_decay_epochs"].split(",") if v
        ),
        lr_decay_factor=config["lr_decay_factor"],
    )


def _build_utility(config: dict, num_classes: int):
    kind = config["utility"]
    if kind == "one-hot":
        return one_hot(num_classes)
    if kind == "tail-sensitive":
        return tail_sensitive(
            num_classes,
            TailSplit(num_classes, config["utility_tail_ratio"]),
            config["rho"],
        )
    matrix = load_matrix(kind)
    if matrix.num_classes != num_classes:
        raise InputError(
            f"utility file covers {matrix.num_classes} classes, data has {num_classes}"
        )
    return matrix


def _load_data(config: dict, seed: int):
    """(train, test) from CSVs when configured, else synthetic at this seed."""
    if config["train_csv"] is not None:
        train_data = load_csv(config["train_csv"], split_tag="train")
        test_data = (
            load_csv(config["test_csv"], split_tag="test")
            if config["test_csv"] is not None
            else None
        )
        return train_data, test_data
    return generate_synthetic(
        num_classes=config["classes"],
        dim=config["dim"],
        n_max=config["n_max"],
        imbalance=config["imbalance"],
        separation=config["separation"],
        seed=seed,
        test_per_class=config["test_per_class"],
    )


def _tail_ratios(config: dict):
    return tuple(float(v) for v in config["tail_ratios"].split(","))


def cmd_generate_data(config: dict) -> int:
    train_data, test_data = _load_data(config, config["seed"])
    if test_data is None:
        raise ValidationError("generate-data needs synthetic settings, not CSVs")
    out = config["out"]
    os.makedirs(out, exist_ok=True)
    save_csv(train_data, os.path.join(out, "train.csv"))
    save_csv(test_data, os.path.join(out, "test.csv"))
    _echo_config(config, out)
    counts = train_data.class_counts
    print(f"wrote {len(train_data)} train / {len(test_data)} test samples to {out}")
    print(f"class counts: {counts.tolist()}")
    return 0


def cmd_train(config: dict) -> int:
    train_data, test_data = _load_data(config, config["seed"])
    utility = _build_utility(config, train_data.num_classes)
    train_config = _train_config(config)
    out = config["out"]
    os.makedirs(out, exist_ok=True)
    ens, records = train(train_config, train_data, utility, out_dir=out)
    save_checkpoint(ens, os.path.join(out, "ensemble.ckpt"))
    write_train_log(records, os.path.join(out, "trainlog.jsonl"))
    if test_data is not None:
        report, _ = evaluate(
            ens, test_data, utility, _tail_ratios(config), config["ece_bins"]
        )
        with open(os.path.join(out, "metrics.json"), "w") as fh:
            fh.write(report_to_json(report))
        print(
            f"acc {report.acc_overall:.4f}  tail acc {report.acc_tail:.4f}"
            f"  fhr_avg {report.fhr_avg:.4f}  ece {report.ece:.4f}"
        )
    _echo_config(config, out)
    print(f"final loss {records[-1].loss.total:.6f}; artifacts in {out}")
    return 0


def cmd_evaluate(config: dict, checkpoint: str) -> int:
    ens = load_checkpoint(checkpoint)
    if config["test_csv"] is not None:
        test_data = load_csv(config["test_csv"], split_tag="test")
    else:
        test_data = _load_data(config, config["seed"])[1]
    if test_data.num_classes != ens.shape.num_classes:
        raise InputError(
            f"test data has {test_data.num_classes} classes,"
            f" checkpoint {ens.shape.num_classes}"
        )
    utility = _build_utility(config, ens.shape.num_classes)
    out = config["out"]
    os.makedirs(out, exist_ok=True)
    report, batch = evaluate(
        ens, test_data, utility, _tail_ratios(config), config["ece_bins"]
    )
    with open(os.path.join(out, "metrics.json"), "w") as fh:
        fh.write(report_to_json(report))
    write_predictions_csv(batch, os.path.join(out, "predictions.csv"))
    _echo_config(config, out)
    print(
        f"acc {report.acc_overall:.4f}  tail acc {report.acc_tail:.4f}"
        f"  fhr_avg {report.fhr_avg:.4f}  ece {report.ece:.4f}"
    )
    return 0


def _cell_config(config: dict, axis: str, value: str) -> dict:
    cell = dict(config)
    if axis == "particles":
        cell["particles"] = int(value)
    else:
        cell[axis] = value
    return cell


def _run_cell(payload):
    config, axis, value = payload
    cell = _cell_config(config, axis, value)
    utility_kind = cell["utility"]

    def data_fn(seed):
        return _load_data(cell, seed)

    def utility_fn(num_classes):
        return _build_utility(cell, num_classes)

    summary = repeat_runs(
        _train_config(cell),
        cell["runs"],
        data_fn,
        utility_fn,
        _tail_ratios(cell),
        cell["ece_bins"],
    )
    row = {axis: value}
    if axis == "ratio":
        counts = data_fn(cell["seed"])[0].class_counts
        weights = class_weights(
            DiscrepancySpec(form=value, gamma=cell["gamma"], beta=cell["beta"]), counts
        )
        row["weight_first"] = round(float(weights.raw[0]), 6)
        row["weight_last"] = round(float(weights.raw[-1]), 6)
        row["growth_pct"] = round(growth_rate(weights), 2)
    if axis == "utility":
        row["utility_kind"] = utility_kind
    mean, std = summary.mean, summary.std
    for ratio in sorted(summary.reports[0].fhr):
        row[f"fhr@{ratio}_mean"] = round(mean[f"fhr@{ratio}"], 6)
    row["fhr_avg_mean"] = round(mean["fhr_avg"], 6)
    row["acc_mean"] = round(mean["acc_overall"], 6)
    row["acc_std"] = round(std["acc_overall"], 6)
    row["acc_tail_mean"] = round(mean["acc_tail"], 6)
    row["acc_tail_std"] = round(std["acc_tail"], 6)
    row["auc_mean"] = round(mean["auc"], 6) if "auc" in mean else None
    row["ece_mean"] = round(mean["ece"], 6)
    row["ece_std"] = round(std["ece"], 6)
    row["disagreement_mean"] = round(mean["disagreement"], 6)
    return row


def cmd_sweep(config: dict, axis: str, grid) -> int:
    if grid is None:
        values = SWEEP_GRIDS[axis]
    else:
        values = [v.strip() for v in grid.split(",") if v.strip()]
    if not values:
        raise ValidationError(f"sweep axis {axis!r} has an empty grid")
    for value in values:
        if axis == "particles":
            if not value.isdigit() or int(value) < 1:
                raise ValidationError(f"particles grid needs positive ints, got {value!r}")
        elif value not in SWEEP_GRIDS[axis]:
            raise ValidationError(
                f"{axis} grid accepts {SWEEP_GRIDS[axis]}, got {value!r}"
            )
    out = config["out"]
    os.makedirs(out, exist_ok=True)

    payloads = [(config, axis, value) for value in values]
    if config["jobs"] > 1:
        with ProcessPoolExecutor(max_workers=config["jobs"]) as pool:
            rows = list(pool.map(_run_cell, payloads))
    else:
        rows = [_run_cell(p) for p in payloads]

    path = os.path.join(out, f"sweep_{axis}.csv")
    write_summary_csv(rows, path)
    _echo_config(config, out)
    for row in rows:
        print(f"{axis}={row[axis]}: acc {row['acc_mean']:.4f} +/- {row['acc_std']:.4f}")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = _effective_config(args)
        if args.command == "generate-data":
            return cmd_generate_data(config)
        if args.command == "train":
            return cmd_train(config)
        if args.command == "evaluate":
            return cmd_evaluate(config, args.checkpoint)
        return cmd_sweep(config, args.axis, args.grid)
    except (ValidationError, InputError, ParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except NumericError as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
