"""Training loss for a particle ensemble on a weighted long-tailed batch.

Minimization form of the integrated-gain bound: per sample and particle, the
log-likelihood of the true class plus 1/utility_scale times the log-space
expected utility of the model's predictions against the true label (the
utility row of the label weighting every class log-likelihood), class-weighted
and averaged; plus weight decay minus the annealed spread bonus.
"""

import warnings
from typing import NamedTuple

import numpy as np

from . import ensemble, numcore
from .ensemble import ParticleEnsemble
from .errors import InputError, NumericError
from .rebalance import ClassWeights
from .utility import UtilityMatrix

SINGLE_PARTICLE = "spread term is 0 for a single particle"


class LossBreakdown(NamedTuple):
    """The loss terms; the field names are the `trainlog.jsonl` keys."""

    nll: float
    utility: float
    reg_l2: float
    reg_entropy: float
    total: float


class TrainingStep:
    """One batch's loss breakdown and (M, P) gradients, with the per-run work done once.

    Construction checks the utility and the class weights against the ensemble's
    K (TrainConfig owns the settings' ranges) and warns once for a single
    particle, whose spread term is 0. A call only computes: its labels must lie
    in [0, K). The particles may change in place between calls, their shape may
    not. Every call returns a new gradient array.
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
        if ens.n_particles == 1:
            warnings.warn(SINGLE_PARTICLE, stacklevel=2)
        self.ens, self.weights, self.utility = ens, weights.normalized, utility.values
        self.utility_scale, self.weight_decay = utility_scale, weight_decay
        self.var_floor = var_floor
        # d total / d logp_j(class k | x_i) is row y_i of I + U / s times
        # -w[y_i] / (B * M): the utility row of the truth weighs every class,
        # the model's predictive mass acting as the decision policy
        self._unscaled = np.eye(k) + utility.values / utility_scale
        self._tables = {}  # batch size B -> (1 / (B * M), cotangent of each label, arange(B))

    def _table(self, batch: int):
        if batch not in self._tables:
            scale = 1.0 / (batch * self.ens.n_particles)
            cotangents = self._unscaled * -(self.weights * scale)[:, None]
            self._tables[batch] = scale, cotangents, np.arange(batch)
        return self._tables[batch]

    def __call__(self, x: np.ndarray, y: np.ndarray, anneal: float):
        """(LossBreakdown, (M, P) gradients) of one batch at this spread weight."""
        ens = self.ens
        scale, cotangents, rows = self._table(len(y))
        per_particle, grads = numcore.backward_batch(
            ens.shape, ens.particles, x, cotangents[y]
        )  # (M, B, K)
        numcore.check_finite_logprobs(per_particle)

        w = self.weights[y]  # (B,)
        logp_true = per_particle[:, rows, y]  # (M, B)
        util_dot = np.einsum("mbk,bk->mb", per_particle, self.utility[y])  # (M, B)
        nll = -scale * float((w * logp_true).sum())
        utility = -(scale / self.utility_scale) * float((w * util_dot).sum())

        reg = ensemble.regularizer(
            ens, self.var_floor, weight_decay=self.weight_decay, anneal=anneal
        )
        total = nll + utility + self.weight_decay * reg.l2_term - anneal * reg.entropy_term
        if not np.isfinite(total):
            raise NumericError("non-finite loss")
        grads += reg.grad
        return LossBreakdown(nll, utility, reg.l2_term, reg.entropy_term, total), grads


def batch_loss(
    ens: ParticleEnsemble,
    x: np.ndarray,
    y: np.ndarray,
    weights: ClassWeights,
    utility: UtilityMatrix,
    *,
    utility_scale: float,
    weight_decay: float,
    anneal: float,
    var_floor: float = 1e-8,
) -> tuple[LossBreakdown, np.ndarray]:
    """Loss breakdown and per-particle gradients (M, P) for one checked batch."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    k = ens.shape.num_classes
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise InputError("batch features and labels must align")
    if x.shape[0] < 1:
        raise InputError("batch must be non-empty")
    if y.min() < 0 or y.max() >= k:
        raise InputError(f"labels must lie in [0, {k})")
    step = TrainingStep(
        ens, weights, utility,
        utility_scale=utility_scale, weight_decay=weight_decay, var_floor=var_floor,
    )
    return step(x, y, anneal)
