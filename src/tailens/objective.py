"""Training loss for a particle ensemble on a weighted long-tailed batch.

Minimization form of the integrated-gain bound: per sample and particle, the
log-likelihood of the true class plus 1/utility_scale times the log-space
expected utility of the model's predictions against the true label (the
utility row of the label weighting every class log-likelihood), class-weighted
and averaged; plus weight decay minus the annealed spread bonus.
"""

from dataclasses import dataclass

import numpy as np

from .ensemble import ParticleEnsemble, regularizer, regularizer_grad
from .errors import InputError, NumericError
from .numcore import backward_batch
from .rebalance import ClassWeights
from .utility import UtilityMatrix


@dataclass(frozen=True)
class LossBreakdown:
    nll_term: float
    utility_term: float
    reg_l2: float
    reg_entropy: float
    total: float


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
    """Loss breakdown and per-particle gradients (M, P) for one batch."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    k = ens.shape.num_classes
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise InputError("batch features and labels must align")
    if x.shape[0] < 1:
        raise InputError("batch must be non-empty")
    if y.min() < 0 or y.max() >= k:
        raise InputError(f"labels must lie in [0, {k})")
    if utility.num_classes != k:
        raise InputError(
            f"utility matrix is over {utility.num_classes} classes, model has {k}"
        )
    if weights.normalized.shape[0] != k:
        raise InputError("class weights must cover every class")
    if utility_scale <= 0:
        raise InputError(f"utility scale must be > 0, got {utility_scale}")

    batch = x.shape[0]
    m = ens.n_particles
    scale = 1.0 / (batch * m)
    w = weights.normalized[y]  # (B,)
    # row y_i of the utility matrix: utility of each candidate decision when
    # the truth is y_i; the model's predictive mass acts as the decision policy
    u_rows = utility.values[y]  # (B, K)
    # d total / d logp_j(class k | x_i), identical for every particle
    cotangent = np.eye(k)[y] + u_rows / utility_scale
    cotangent *= -(w * scale)[:, None]

    logprobs, grads = zip(
        *(backward_batch(ens.shape, theta, x, cotangent) for theta in ens.particles)
    )
    per_particle = np.stack(logprobs)  # (M, B, K)
    if not np.all(np.isfinite(per_particle)):
        bad = int(np.argmax(~np.isfinite(per_particle).all(axis=(0, 2))))
        raise NumericError(f"non-finite log-probabilities at sample index {bad}")

    logp_true = per_particle[:, np.arange(batch), y]  # (M, B)
    util_dot = np.einsum("mbk,bk->mb", per_particle, u_rows)  # (M, B)
    nll_term = -scale * float(np.sum(w * logp_true))
    utility_term = -(scale / utility_scale) * float(np.sum(w * util_dot))

    reg = regularizer(ens, weight_decay, anneal, var_floor)
    total = nll_term + utility_term + weight_decay * reg.l2_term - anneal * reg.entropy_term
    if not np.isfinite(total):
        raise NumericError("non-finite loss")

    grads = np.stack(grads)
    grads += regularizer_grad(ens, weight_decay, anneal, var_floor)

    breakdown = LossBreakdown(
        nll_term=nll_term,
        utility_term=utility_term,
        reg_l2=reg.l2_term,
        reg_entropy=reg.entropy_term,
        total=total,
    )
    return breakdown, grads
