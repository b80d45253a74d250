"""Command-line front end: generate-data, train, evaluate, sweep.

Configuration comes from built-in defaults, overridden by an optional JSON
config file (--config), overridden by explicit flags. Unknown file keys are
hard errors and nothing runs until every value validates. The merged
effective config is echoed to <out>/config.json. Exit codes: 0 success,
1 validation/input/parse error, 2 runtime or numeric error.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import fields
from functools import partial

import numpy as np

from .dataset import CsvRows, generate_synthetic, load_csv, save_csv, train_class_counts
from .decision import write_predictions_csv
from .ensemble import load_checkpoint, save_checkpoint
from .errors import InputError, NumericError, ParseError, naming, open_text, utf8
from .metrics import report_to_json, write_summary_csv
from .objective import utility_term
from .rebalance import DiscrepancySpec, class_weights, growth_rate, without_samples
from .trainer import TrainConfig, evaluate, repeat_runs, train, write_train_log
from .utility import load_matrix, one_hot, tail_sensitive


# key -> (default, help); a key takes the type of its default (str for None)
SCHEMA = {
    "classes": (10, "number of classes for synthetic data"),
    "dim": (16, "synthetic feature dimension"),
    "n_max": (1000, "largest synthetic class size"),
    "imbalance": (100.0, "largest/smallest class size factor"),
    "separation": (2.4, "norm of synthetic class means"),
    "test_per_class": (100, "synthetic test samples per class"),
    "train_csv": (None, "training CSV (overrides synthetic data)"),
    "test_csv": (None, "test CSV (overrides synthetic data)"),
    "hidden": ("32", "comma-separated hidden layer sizes"),
    "epochs": (600, "training epochs"),
    "batch_size": (128, "minibatch size"),
    "learning_rate": (0.02, "SGD step size"),
    "momentum": (0.9, "SGD momentum"),
    "weight_decay": (1e-2, "L2 regularizer coefficient"),
    "lr_decay_epochs": ("", "comma-separated epochs that step the learning rate down"),
    "lr_decay_factor": (0.1, "learning rate multiplier at each decay epoch"),
    "anneal_stride": (40.0, "epochs for the spread bonus to decay by 1/e"),
    "utility_scale": (1.0, "divisor of the utility term in the loss"),
    "particles": (3, "ensemble size"),
    "var_floor": (1e-8, "variance floor in the spread bonus"),
    "repulsion": ("on", "annealed spread bonus on/off"),
    "ratio": ("linear", "class weighting form"),
    "gamma": (1.0, "power form exponent"),
    "beta": (0.9999, "effective form decay"),
    "utility": ("one-hot", "one-hot, tail-sensitive, or a CSV path"),
    "rho": (1.0, "tail-sensitive penalty"),
    "utility_tail_ratio": (0.5, "tail share for the tail-sensitive utility"),
    "ece_bins": (15, "calibration bins"),
    "tail_ratios": ("0.25,0.5,0.75", "tail shares for the false head rate"),
    "checkpoint_every": (0, "epochs between checkpoints (0: final only)"),
    "runs": (5, "repeated runs per sweep cell"),
    "seed": (0, "base random seed"),
    "jobs": (1, "parallel sweep workers"),
    "out": ("out", "output directory"),
}

SWEEP_GRIDS = {
    "utility": ["one-hot", "tail-sensitive"],
    "ratio": ["linear", "effective", "sqrt", "log", "plain"],
    "repulsion": ["on", "off"],
    "particles": [str(m) for m in range(1, 9)],
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _build_parser():
    parser = _Parser(prog="tailens", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("generate-data", "train", "evaluate", "sweep"):
        p = sub.add_parser(command, description=f"tailens {command}")
        p.add_argument("--config", help="JSON config file")
        for key, (_, text) in SCHEMA.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=None, help=text)
        if command == "evaluate":
            p.add_argument("--checkpoint", required=True, help="ensemble checkpoint to load")
        if command == "sweep":
            p.add_argument(
                "--axis", required=True, choices=sorted(SWEEP_GRIDS), help="sweep axis"
            )
            p.add_argument("--grid", default=None, help="comma-separated axis values")
    return parser


def _coerce(key: str, value):
    """A flag string or JSON value as the type of the key's default, finite."""
    default = SCHEMA[key][0]
    if value is None and default is None:
        return None
    kind = str if default is None else type(default)
    try:
        if isinstance(value, str) and kind is not str:
            value = kind(value)
        elif kind is float and type(value) is int:
            value = float(value)
        elif kind is int and type(value) is float and value.is_integer():
            value = int(value)
    except (ValueError, OverflowError):
        pass  # the value keeps its wrong type and is rejected below
    if type(value) is not kind or (kind is float and not math.isfinite(value)):
        finite = "a finite " if kind is float else ""
        raise InputError(f"{key}: expected {finite}{kind.__name__}, got {value!r}")
    return value


def _numbers(config: dict, key: str, kind=int) -> tuple:
    """The values of a comma-separated list key; the empty string has none."""
    text = config[key]
    try:
        return tuple(kind(v) for v in text.split(",")) if text else ()
    except ValueError:
        raise InputError(
            f"{key}: expected comma-separated {kind.__name__}s, got {text!r}"
        ) from None


def _can_hold(out: str) -> bool:
    """Whether out is, or can be made as, a directory to write in: the nearest of it
    and its parents that exists is a directory this process may write in."""
    while out and not os.path.lexists(out):
        out = os.path.dirname(out)
    out = out or "."
    return os.path.isdir(out) and os.access(out, os.W_OK | os.X_OK)


def _check(config: dict) -> tuple:
    """The (TrainConfig, (tail_ratios, ece_bins)) that run config, once no value is out of
    range. The dataclasses own the training keys: every key naming a field, then the rest."""
    settings = {f.name: config[f.name] for f in fields(TrainConfig) if f.name in config}
    settings.update(
        ratio=DiscrepancySpec(form=config["ratio"], gamma=config["gamma"], beta=config["beta"]),
        repulsion=config["repulsion"] == "on",
        hidden=_numbers(config, "hidden"),
        lr_decay_epochs=_numbers(config, "lr_decay_epochs"),
    )
    train_config = TrainConfig(**settings)
    ratios, out = _numbers(config, "tail_ratios", float), config["out"]
    rules = {
        "classes": (config["classes"] >= 2, ">= 2"),
        "dim": (config["dim"] >= 1, ">= 1"),
        "n_max": (config["n_max"] >= 1, ">= 1"),
        "imbalance": (config["imbalance"] >= 1.0, ">= 1.0"),
        "separation": (config["separation"] >= 0.0, ">= 0.0"),
        "test_per_class": (config["test_per_class"] >= 1, ">= 1"),
        "rho": (config["rho"] >= 0.0, ">= 0.0"),
        "utility_tail_ratio": (0.0 < config["utility_tail_ratio"] < 1.0, "in (0, 1)"),
        "tail_ratios": (bool(ratios) and all(0.0 < r < 1.0 for r in ratios), "in (0, 1)"),
        "ece_bins": (config["ece_bins"] >= 1, ">= 1"),
        "runs": (config["runs"] >= 1, ">= 1"),
        "jobs": (config["jobs"] >= 1, ">= 1"),
        "out": (out != "" and _can_hold(out),
                "non-empty and a writable directory or a new path under one"),
        "repulsion": (config["repulsion"] in ("on", "off"), "'on' or 'off'"),
    }
    for key, (ok, rule) in rules.items():
        if not ok:
            raise InputError(f"{key}: must be {rule}, got {config[key]!r}")
    return train_config, (ratios, config["ece_bins"])


def _named_once(path, pairs) -> dict:
    """A JSON object of the config file at path, whose keys must each appear once."""
    loaded = {}
    for key, value in pairs:
        if key in loaded:
            raise InputError(f"{path}: config key {key!r} is named twice")
        loaded[key] = value
    return loaded


def _effective_config(args) -> tuple:
    config = {key: default for key, (default, _) in SCHEMA.items()}
    if args.config is not None:
        try:
            with naming(args.config), open_text(args.config) as fh:
                text = "".join(utf8(line, n) for n, line in enumerate(fh, start=1))
                loaded = json.loads(text, object_pairs_hook=partial(_named_once, args.config))
        except (json.JSONDecodeError, RecursionError) as err:
            raise InputError(f"{args.config}: not valid JSON: {err}") from None
        if not isinstance(loaded, dict):
            raise InputError(f"{args.config}: config file must hold a JSON object")
        for key, value in loaded.items():
            if key not in SCHEMA:
                raise InputError(f"{args.config}: unknown config key {key!r}")
            config[key] = value
    for key in SCHEMA:
        raw = getattr(args, key, None)
        if raw is not None:
            config[key] = raw
    config = {key: _coerce(key, value) for key, value in config.items()}
    return (config, *_check(config))


def _write_text(text: str, path) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _publish(config: dict, files: dict) -> None:
    """The one place a command writes, called once it has computed all it writes:
    make --out, write each name -> writer(path) entry in it, then config.json."""
    out = config["out"]
    os.makedirs(out, exist_ok=True)
    for name, write in files.items():
        write(os.path.join(out, name))
    echo = json.dumps(config, sort_keys=True, indent=2) + "\n"
    _write_text(echo, os.path.join(out, "config.json"))


def _build_utility(config: dict, num_classes: int):
    kind = config["utility"]
    if kind == "one-hot":
        return one_hot(num_classes)
    if kind == "tail-sensitive":
        return tail_sensitive(num_classes, config["utility_tail_ratio"], config["rho"])
    matrix = load_matrix(kind)
    if matrix.num_classes != num_classes:
        raise InputError(f"{kind} covers {matrix.num_classes} classes, data has {num_classes}")
    return matrix


def _synthetic(config: dict, seed: int) -> tuple:
    """The config's synthetic (train, test) pair at this seed."""
    return generate_synthetic(
        num_classes=config["classes"],
        dim=config["dim"],
        n_max=config["n_max"],
        imbalance=config["imbalance"],
        separation=config["separation"],
        seed=seed,
        test_per_class=config["test_per_class"],
    )


def _training_data(config: dict, runs: int) -> tuple:
    """(training class counts, each run's (train, test) pair). CSVs are parsed here,
    once, and every run shares them; synthetic counts are the config's, and run r is
    drawn at seed + r only as the pairs are iterated, after the checks on the counts."""
    if config["train_csv"] is None:
        if config["test_csv"] is not None:
            raise InputError("--test-csv needs --train-csv")
        counts = train_class_counts(config["classes"], config["n_max"], config["imbalance"])
        return counts, (_synthetic(config, config["seed"] + r) for r in range(runs))
    train_data = load_csv(config["train_csv"])
    # what training would reject too, said here with the file's name
    empty = without_samples(np.unique(train_data.labels), train_data.num_classes)
    if empty:
        raise InputError(f"{config['train_csv']}: {empty}")
    if train_data.num_classes < 2:
        raise InputError(f"{config['train_csv']}: training needs at least 2 classes")
    test_data = None
    if config["test_csv"] is not None:
        test_data = load_csv(config["test_csv"], train_data.num_classes)
        if test_data.dim != train_data.dim:
            raise InputError(
                f"{config['test_csv']} has {test_data.dim} features,"
                f" {config['train_csv']} has {train_data.dim}"
            )
    return train_data.class_counts, [(train_data, test_data)] * runs


def cmd_generate_data(config: dict) -> int:
    if config["train_csv"] is not None or config["test_csv"] is not None:
        raise InputError("generate-data needs synthetic settings, not CSVs")
    train_data, test_data = _synthetic(config, config["seed"])
    _publish(config, {"train.csv": partial(save_csv, train_data),
                      "test.csv": partial(save_csv, test_data)})
    print(f"wrote {len(train_data)} train / {len(test_data)} test samples to {config['out']}")
    print(f"class counts: {train_data.class_counts.tolist()}")
    return 0


def _check_regions(num_classes: int, source: str) -> None:
    """Evaluation splits the classes into head, medium and tail thirds."""
    if num_classes < 3:
        raise InputError(f"{source}: evaluation needs K >= 3 classes, got {num_classes}")


def _summary(report) -> str:
    """The stdout line of a metrics report."""
    tail = "n/a" if report.acc_tail is None else f"{report.acc_tail:.4f}"
    return (
        f"acc {report.acc_overall:.4f}  tail acc {tail}"
        f"  fhr_avg {report.fhr_avg:.4f}  ece {report.ece:.4f}"
    )


def _trainable(config: dict, train_config: TrainConfig, counts) -> tuple:
    """(utility, class weights) of a run on data with these training class counts, once
    every rule they decide holds: K >= 3 if the run is evaluated (it is unless a training
    CSV comes without a test CSV), the utility's K, its loss term and the weights."""
    if config["train_csv"] is None or config["test_csv"] is not None:
        _check_regions(len(counts), config["train_csv"] or "classes")
    utility = _build_utility(config, len(counts))
    utility_term(utility, train_config.utility_scale)
    return utility, class_weights(train_config.ratio, counts)


def cmd_train(config: dict, train_config: TrainConfig, scoring: tuple) -> int:
    counts, runs = _training_data(config, 1)
    utility = _trainable(config, train_config, counts)[0]
    [(train_data, test_data)] = runs
    ens, records, checkpoints = train(train_config, train_data, utility)
    files = {"ensemble.ckpt": partial(save_checkpoint, ens),
             "trainlog.jsonl": partial(write_train_log, records)}
    for epoch, snapshot in checkpoints:
        files[f"checkpoint_epoch{epoch:04d}.ckpt"] = partial(save_checkpoint, snapshot)
    if test_data is not None:
        report = evaluate(ens, test_data, utility, *scoring)[0]
        files["metrics.json"] = partial(_write_text, report_to_json(report))
    _publish(config, files)
    if test_data is not None:
        print(_summary(report))
    print(f"final loss {records[-1].loss.total:.6f}; artifacts in {config['out']}")
    return 0


def cmd_evaluate(config: dict, scoring: tuple, checkpoint: str) -> int:
    if config["train_csv"] is not None:
        raise InputError("evaluate reads --test-csv, not --train-csv")
    ens = load_checkpoint(checkpoint)
    k, dim = ens.shape.num_classes, ens.shape.input_dim
    _check_regions(k, checkpoint)
    utility = _build_utility(config, k)
    if config["test_csv"] is None:  # the config's K and D must be the checkpoint's before a draw
        for key, noun, want in (("classes", "classes", k), ("dim", "features", dim)):
            if config[key] != want:
                raise InputError(
                    f"{key}: synthetic test data has {config[key]} {noun}, {checkpoint} has {want}"
                )
        test_data = _synthetic(config, config["seed"])[1]
    else:
        # the header and the row count now; the rows are parsed as they are decided
        test_data = CsvRows(config["test_csv"], num_classes=k)
        if test_data.dim != dim:
            raise InputError(
                f"{config['test_csv']} has {test_data.dim} features, {checkpoint} has {dim}"
            )
    report, batch = evaluate(ens, test_data, utility, *scoring)
    _publish(config, {"metrics.json": partial(_write_text, report_to_json(report)),
                      "predictions.csv": partial(write_predictions_csv, batch)})
    print(_summary(report))
    return 0


def _run_cell(payload):
    """A sweep row: its leading columns, then the statistics of the cell's runs."""
    config, utility, row, data, scoring = payload
    reports = repeat_runs(config, data, utility, *scoring)

    def stat(name, reduce=np.mean):
        """Mean (or std) of a report field over the runs that have it, to 6 places."""
        values = [getattr(rep, name) for rep in reports if getattr(rep, name) is not None]
        return round(float(reduce(values)), 6) if values else None

    for ratio in sorted(reports[0].fhr):
        row[f"fhr@{ratio}_mean"] = round(float(np.mean([rep.fhr[ratio] for rep in reports])), 6)
    row["fhr_avg_mean"] = stat("fhr_avg")
    row["acc_mean"] = stat("acc_overall")
    row["acc_std"] = stat("acc_overall", np.std)
    row["acc_tail_mean"] = stat("acc_tail")
    row["acc_tail_std"] = stat("acc_tail", np.std)
    row["auc_mean"] = stat("auc")
    row["ece_mean"] = stat("ece")
    row["ece_std"] = stat("ece", np.std)
    row["disagreement_mean"] = stat("disagreement")
    return row


def cmd_sweep(config: dict, scoring: tuple, axis: str, grid) -> int:
    if grid is None:
        values = SWEEP_GRIDS[axis]
    else:
        values = [v.strip() for v in grid.split(",") if v.strip()]
    if not values:
        raise InputError(f"sweep axis {axis!r} has an empty grid")
    if config["train_csv"] is not None and config["test_csv"] is None:
        raise InputError("sweep evaluates every run: --train-csv needs --test-csv")
    counts, runs = _training_data(config, config["runs"])
    # every cell is built and checked, its row's leading columns too, before any trains
    # and, on synthetic data, before any is drawn
    cells = []
    for value in values:
        cell = {**config, axis: _coerce(axis, value)}
        train_config = _check(cell)[0]
        utility, weights = _trainable(cell, train_config, counts)
        row = {axis: value}
        if axis == "ratio":
            row["weight_first"] = round(float(weights.raw[0]), 6)
            row["weight_last"] = round(float(weights.raw[-1]), 6)
            row["growth_pct"] = round(growth_rate(weights), 2)
        cells.append((train_config, utility, row))
    # no axis changes the data, so run r of every cell trains on data[r]
    data = list(runs)
    payloads = [(*cell, data, scoring) for cell in cells]

    workers = min(config["jobs"], len(payloads))
    if workers > 1:
        # imported here: the process pool costs every other command its import time
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        spawn = multiprocessing.get_context("spawn")  # fork is unsafe under BLAS threads
        with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
            rows = list(pool.map(_run_cell, payloads))
    else:
        rows = [_run_cell(p) for p in payloads]

    name = f"sweep_{axis}.csv"
    _publish(config, {name: partial(write_summary_csv, rows)})
    for row in rows:
        print(f"{axis}={row[axis]}: acc {row['acc_mean']:.4f} +/- {row['acc_std']:.4f}")
    print(f"wrote {os.path.join(config['out'], name)}")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config, train_config, scoring = _effective_config(args)
        if args.command == "generate-data":
            return cmd_generate_data(config)
        if args.command == "train":
            return cmd_train(config, train_config, scoring)
        if args.command == "evaluate":
            return cmd_evaluate(config, scoring, args.checkpoint)
        return cmd_sweep(config, scoring, args.axis, args.grid)
    except (InputError, ParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except NumericError as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return 2
    except (OSError, MemoryError) as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
