"""Training loss for a particle ensemble on a weighted long-tailed batch.

Minimization form of the integrated-gain bound: per sample and particle, the
log-likelihood of the true class plus 1/utility_scale times the log-space
expected utility of the model's predictions against the true label (the
utility row of the label weighting every class log-likelihood), class-weighted
and averaged; plus weight decay minus the annealed spread bonus.
"""

from typing import NamedTuple

import numpy as np

from . import ensemble, numcore
from .ensemble import ParticleEnsemble
from .errors import InputError, NumericError
from .rebalance import ClassWeights
from .utility import UtilityMatrix


class LossBreakdown(NamedTuple):
    """The loss terms; the field names are the `trainlog.jsonl` keys."""

    nll: float
    utility: float
    reg_l2: float
    reg_entropy: float
    total: float


def utility_term(utility: UtilityMatrix, utility_scale: float) -> np.ndarray:
    """I + U / utility_scale, the rows that weigh each class's log-prob in the loss,
    once it is finite: an overflow is an InputError before any training work."""
    with np.errstate(over="ignore"):
        unscaled = np.eye(utility.num_classes) + utility.values / utility_scale
    if not np.isfinite(unscaled).all():
        raise InputError(f"utility_scale {utility_scale} overflows the utility term")
    return unscaled


class TrainingStep:
    """The per-run state of the training loss: checks and tables done once.

    Construction checks the utility and the class weights against the ensemble's
    K, and that utility / utility_scale is finite (TrainConfig owns the settings'
    ranges). `batch_loss` runs one batch on it. The particles may change in place
    between batches, their shape may not.
    """

    def __init__(
        self, ens: ParticleEnsemble, weights: ClassWeights, utility: UtilityMatrix, *,
        utility_scale: float, weight_decay: float, var_floor: float = 1e-8,
    ):
        k = ens.shape.num_classes
        if utility.num_classes != k:
            raise InputError(
                f"utility matrix is over {utility.num_classes} classes, model has {k}"
            )
        if weights.normalized.shape[0] != k:
            raise InputError("class weights must cover every class")
        self.ens, self.weights, self.utility = ens, weights.normalized, utility.values
        self.n_particles = ens.n_particles
        self.utility_scale, self.weight_decay = utility_scale, weight_decay
        self.var_floor = var_floor
        # d total / d logp_j(class k | x_i) is row y_i of I + U / s times
        # -w[y_i] / (B * M): the utility row of the truth weighs every class,
        # the model's predictive mass acting as the decision policy
        self._unscaled = utility_term(utility, utility_scale)
        self._tables = {}  # batch size B -> (1 / (B * M), cotangent of each label, arange(B))

    def _table(self, batch: int):
        if batch not in self._tables:
            scale = 1.0 / (batch * self.n_particles)
            cotangents = self._unscaled * -(self.weights * scale)[:, None]
            self._tables[batch] = scale, cotangents, np.arange(batch)
        return self._tables[batch]


def batch_loss(step: TrainingStep, x: np.ndarray, y: np.ndarray, anneal: float):
    """(LossBreakdown, new (M, P) gradients) of one batch at this spread weight, under
    the caller's np.errstate (train's one per run); labels in [0, K), unchecked."""
    ens = step.ens
    scale, cotangents, rows = step._table(len(y))
    per_particle, grads = numcore.backward_batch(
        ens.shape, ens.particles, x, cotangents[y]
    )  # (M, B, K)

    w = step.weights[y]  # (B,)
    logp_true = per_particle[:, rows, y]  # (M, B)
    util_dot = np.einsum("mbk,bk->mb", per_particle, step.utility[y])  # (M, B)
    nll = -scale * float((w * logp_true).sum())
    utility = -(scale / step.utility_scale) * float((w * util_dot).sum())

    reg = ensemble.regularizer(
        ens, step.var_floor, weight_decay=step.weight_decay, anneal=anneal
    )
    total = nll + utility + step.weight_decay * reg.l2_term - anneal * reg.entropy_term
    if not np.isfinite(total):
        numcore.check_finite_logprobs(per_particle)  # a bad log-prob's first row
        raise NumericError("non-finite loss")
    grads += reg.grad
    return LossBreakdown(nll, utility, reg.l2_term, reg.entropy_term, total), grads
