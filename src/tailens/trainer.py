"""SGD training loop for particle ensembles, evaluation, and repeated runs.

Everything is deterministic given the config: particle inits come from
per-particle seed streams, epoch shuffles from a stream keyed by
(seed, epoch), and the loop touches no other randomness.
"""

import json
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .dataset import CsvRows, LongTailDataset, tail_mask
from .decision import BatchDecisions, decide_batch
from .ensemble import ParticleEnsemble, diversity_diagnostics
from .errors import InputError, NumericError, require_same
from .metrics import (
    MetricsReport,
    auc_misclassification,
    expected_calibration_error,
    false_head_rate,
    region_accuracy,
)
from .numcore import NetShape, forward_logprobs_batch, init_params
from .objective import LossBreakdown, TrainingStep, batch_loss
from .rebalance import DiscrepancySpec, class_weights
from .utility import UtilityMatrix

# domain separation tags so init and shuffle streams differ at equal seeds
_INIT_STREAM = 11
_SHUFFLE_STREAM = 7

DEFAULT_TAIL_RATIOS = (0.25, 0.5, 0.75)
DIAGNOSTIC_SAMPLES = 256


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 600
    batch_size: int = 128
    learning_rate: float = 0.02
    momentum: float = 0.9
    weight_decay: float = 1e-2
    anneal_stride: float = 40.0
    utility_scale: float = 1.0
    particles: int = 3
    var_floor: float = 1e-8
    seed: int = 0
    ratio: DiscrepancySpec = field(default_factory=DiscrepancySpec)
    repulsion: bool = True
    hidden: tuple[int, ...] = (32,)
    checkpoint_every: int = 0
    lr_decay_epochs: tuple[int, ...] = ()
    lr_decay_factor: float = 0.1

    def __post_init__(self):
        rules = {
            "epochs": (self.epochs >= 1, ">= 1"),
            "batch_size": (self.batch_size >= 1, ">= 1"),
            "learning_rate": (self.learning_rate >= 0, ">= 0"),
            "momentum": (0.0 <= self.momentum < 1.0, "in [0, 1)"),
            "weight_decay": (self.weight_decay >= 0, ">= 0"),
            "anneal_stride": (self.anneal_stride > 0, "> 0"),
            "utility_scale": (self.utility_scale > 0, "> 0"),
            "particles": (self.particles >= 1, ">= 1"),
            "var_floor": (self.var_floor > 0, "> 0"),
            "seed": (self.seed >= 0, ">= 0"),
            "hidden": (bool(self.hidden) and min(self.hidden) >= 1, "sizes >= 1"),
            "checkpoint_every": (self.checkpoint_every >= 0, ">= 0"),
            "lr_decay_epochs": (all(e >= 1 for e in self.lr_decay_epochs), "all >= 1"),
            "lr_decay_factor": (0.0 < self.lr_decay_factor <= 1.0, "in (0, 1]"),
        }
        for name, (ok, rule) in rules.items():
            if not ok:
                raise InputError(f"{name}: must be {rule}, got {getattr(self, name)!r}")


class EpochRecord(NamedTuple):
    """One epoch; with the loss terms spread out, the fields are the trainlog keys."""

    epoch: int
    loss: LossBreakdown  # means over the epoch's batches
    anneal: float
    param_distance: float
    disagreement: float


def anneal_weight(epoch: int, stride: float) -> float:
    """exp(-epoch/stride): 1 at epoch 0, decaying by the stride; TrainConfig keeps it > 0."""
    return float(np.exp(-epoch / stride))


def default_particle_seeds(seed: int, n_particles: int) -> tuple[int, ...]:
    state = np.random.SeedSequence((seed, _INIT_STREAM)).generate_state(n_particles)
    return tuple(int(s) for s in state)


def _init_particles(config: TrainConfig, shape: NetShape) -> np.ndarray:
    particles = [
        init_params(shape, np.random.default_rng(np.random.SeedSequence((s, _INIT_STREAM))))
        for s in default_particle_seeds(config.seed, config.particles)
    ]
    return np.stack(particles)


def train(
    config: TrainConfig,
    train_data: LongTailDataset,
    utility: UtilityMatrix,
) -> tuple[ParticleEnsemble, list[EpochRecord], list[tuple[int, ParticleEnsemble]]]:
    """Train an ensemble; returns it with one record per epoch and an
    (epoch, snapshot) pair every config.checkpoint_every epochs (none at 0)."""
    weights = class_weights(config.ratio, train_data.class_counts)
    shape = NetShape(train_data.dim, config.hidden, train_data.num_classes)
    ens = ParticleEnsemble(shape=shape, particles=_init_particles(config, shape))
    velocity = np.zeros_like(ens.particles)
    step = TrainingStep(
        ens, weights, utility, utility_scale=config.utility_scale,
        weight_decay=config.weight_decay, var_floor=config.var_floor,
    )

    features = train_data.features
    labels = train_data.labels
    n = len(train_data)
    diag_x = features[: min(n, DIAGNOSTIC_SAMPLES)]

    records = []
    checkpoints = []
    lr = config.learning_rate
    # entered once per run, as decide_batch does: overflow inside the network is
    # not an error, non-finite log-probs and a non-finite loss raise NumericError
    with np.errstate(all="ignore"):
        for epoch in range(config.epochs):
            if epoch in config.lr_decay_epochs:
                lr *= config.lr_decay_factor
            anneal = anneal_weight(epoch, config.anneal_stride) if config.repulsion else 0.0
            shuffle_rng = np.random.default_rng(
                np.random.SeedSequence((config.seed, _SHUFFLE_STREAM, epoch))
            )
            perm = shuffle_rng.permutation(n)

            sums = np.zeros(len(LossBreakdown._fields))
            n_batches = 0
            for start in range(0, n, config.batch_size):
                idx = perm[start : start + config.batch_size]
                try:
                    breakdown, grads = batch_loss(step, features[idx], labels[idx], anneal)
                except NumericError as err:
                    what = str(err)
                    if not np.isfinite(ens.particles).all():  # no row is to blame
                        what = "the steps left non-finite parameters"
                    elif err.sample is not None:  # the dataset row, not the batch position
                        what = f"{err.reason} at dataset row {idx[err.sample]}"
                    elif err.reason != "non-finite loss":  # no row's log-probs are finite
                        what = (
                            f"{err.reason} at every row of the batch; largest"
                            f" |parameter| {np.abs(ens.particles).max():.2e}"
                        )
                    raise NumericError(f"epoch {epoch}, batch {n_batches}: {what}") from err
                velocity *= config.momentum
                # the loss averages over particles; stepping on M*grad gives each
                # particle the full-strength gradient of its own loss, so particles
                # never interact unless the spread bonus couples them
                grads *= ens.n_particles
                velocity += grads
                ens.particles -= lr * velocity
                sums += breakdown
                n_batches += 1

            if not np.isfinite(ens.particles).all():  # no later batch would see them
                raise NumericError(f"epoch {epoch}: the steps left non-finite parameters")
            means = sums / n_batches
            preds = forward_logprobs_batch(shape, ens.particles, diag_x).argmax(axis=2)
            diag = diversity_diagnostics(ens, preds)  # preds: (M, n_diag)
            records.append(EpochRecord(
                epoch=epoch, loss=LossBreakdown(*means), anneal=anneal, **diag._asdict()
            ))
            if config.checkpoint_every and (epoch + 1) % config.checkpoint_every == 0:
                checkpoints.append((epoch, ParticleEnsemble(shape, ens.particles.copy())))

    return ens, records, checkpoints


def write_train_log(records: list[EpochRecord], path) -> None:
    """One JSON object per line, one line per epoch."""
    with open(path, "w") as fh:
        for rec in records:
            row = rec._asdict()
            row.update(row.pop("loss")._asdict())
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def evaluate(
    ens: ParticleEnsemble,
    test_data: LongTailDataset | CsvRows,
    utility: UtilityMatrix,
    tail_ratios: tuple[float, ...] = DEFAULT_TAIL_RATIOS,
    ece_bins: int = 15,
) -> tuple[MetricsReport, BatchDecisions]:
    """Decide the test set once; the metrics report and the decisions it read. The
    test set is a dataset or a data CSV's CsvRows, made with the model's K and
    decided as it is parsed; the regions and tail masks are those of that K."""
    k = ens.shape.num_classes
    require_same("test data", test_data.num_classes, "classes", "model", k)
    if not tail_ratios:
        raise InputError("need at least one tail ratio")
    x = test_data if isinstance(test_data, CsvRows) else test_data.features
    batch = decide_batch(ens, utility, x)
    labels = test_data.labels
    correct = batch.decisions == labels
    acc = region_accuracy(labels, batch.decisions, k)
    fhr = {
        float(r): false_head_rate(labels, batch.decisions, tail_mask(k, float(r)))
        for r in tail_ratios
    }
    report = MetricsReport(
        **acc._asdict(),
        fhr=fhr,
        fhr_avg=float(np.mean(list(fhr.values()))),
        auc=auc_misclassification(batch.entropy, correct),
        ece=expected_calibration_error(batch.confidence, correct, ece_bins),
        n_test=len(labels),
        **diversity_diagnostics(ens, batch.particle_preds)._asdict(),
    )
    return report, batch


def repeat_runs(
    config: TrainConfig,
    data: list[tuple[LongTailDataset, LongTailDataset]],
    utility: UtilityMatrix,
    tail_ratios: tuple[float, ...] = DEFAULT_TAIL_RATIOS,
    ece_bins: int = 15,
) -> list[MetricsReport]:
    """Train run r at seed config.seed + r on the (train, test) pair data[r], and
    evaluate it; one report per run. Runs may share a pair: nothing writes to it.
    """
    if not data:
        raise InputError("need the data of at least one run")
    reports = []
    for r, (train_data, test_data) in enumerate(data):
        run_config = replace(config, seed=config.seed + r)
        ens = train(run_config, train_data, utility)[0]
        reports.append(evaluate(ens, test_data, utility, tail_ratios, ece_bins)[0])
    return reports
