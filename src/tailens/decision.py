"""Utility-aware decisions from an ensemble's predictive distribution.

Decisions maximize expected utility under the ensemble's log-averaged
predictive: the per-particle log-probabilities are averaged, exponentiated,
and renormalized, and the gain of deciding class d is the utility column of d
weighted by that distribution. Because the log-average is monotone under the
renormalization, a one-hot utility reduces exactly to the argmax of the mean
log-probabilities. Ties break toward the lowest class id. The plain argmax of
the mixture distribution is reported alongside as a diagnostic.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .ensemble import ParticleEnsemble, predictive_logprobs_batch
from .errors import InputError
from .metrics import predictive_entropy
from .utility import UtilityMatrix


@dataclass(frozen=True)
class DecisionOutput:
    decision: int
    argmax_pred: int
    expected_gains: np.ndarray  # (K,)
    mixture: np.ndarray  # (K,)


@dataclass(frozen=True)
class BatchDecisions:
    decisions: np.ndarray  # (N,)
    argmax_preds: np.ndarray  # (N,)
    expected_gains: np.ndarray  # (N, K)
    mixture: np.ndarray  # (N, K)
    particle_preds: np.ndarray  # (M, N) argmax class of each particle

    def __len__(self) -> int:
        return int(self.decisions.shape[0])


def decide_batch(
    ens: ParticleEnsemble, utility: UtilityMatrix, x: np.ndarray
) -> BatchDecisions:
    if utility.num_classes != ens.shape.num_classes:
        raise InputError(
            f"utility matrix is over {utility.num_classes} classes,"
            f" model has {ens.shape.num_classes}"
        )
    per_particle, mixture = predictive_logprobs_batch(ens, x)
    mean_logp = np.einsum("m,mnk->nk", ens.mixture_weights, per_particle)
    shifted = np.exp(mean_logp - mean_logp.max(axis=1, keepdims=True))
    geo_pred = shifted / shifted.sum(axis=1, keepdims=True)
    gains = geo_pred @ utility.values
    return BatchDecisions(
        decisions=gains.argmax(axis=1),
        argmax_preds=mixture.argmax(axis=1),
        expected_gains=gains,
        mixture=mixture,
        particle_preds=per_particle.argmax(axis=2),
    )


def decide(ens: ParticleEnsemble, utility: UtilityMatrix, x: np.ndarray) -> DecisionOutput:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise InputError(f"expected a single input vector, got shape {x.shape}")
    batch = decide_batch(ens, utility, x[None, :])
    return DecisionOutput(
        decision=int(batch.decisions[0]),
        argmax_pred=int(batch.argmax_preds[0]),
        expected_gains=batch.expected_gains[0],
        mixture=batch.mixture[0],
    )


def write_predictions_csv(batch: BatchDecisions, path) -> None:
    """Per-sample decisions: index,decision,argmax_pred,entropy,maxprob."""
    entropy = predictive_entropy(batch.mixture)
    maxprob = batch.mixture.max(axis=1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "decision", "argmax_pred", "entropy", "maxprob"])
        for i in range(len(batch)):
            writer.writerow(
                [
                    i,
                    int(batch.decisions[i]),
                    int(batch.argmax_preds[i]),
                    repr(float(entropy[i])),
                    repr(float(maxprob[i])),
                ]
            )
