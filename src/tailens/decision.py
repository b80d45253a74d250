"""Utility-aware decisions from an ensemble's predictive distribution.

Decisions maximize expected utility under the ensemble's log-averaged
predictive: the per-particle log-probabilities are averaged, exponentiated,
and renormalized, and the gain of deciding class d is the utility column of d
weighted by that distribution. Because the log-average is monotone under the
renormalization, a one-hot utility reduces exactly to the argmax of the mean
log-probabilities. Ties break toward the lowest class id. The plain argmax of
the mixture distribution is reported alongside as a diagnostic.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ensemble import ParticleEnsemble, predictive_logprobs_batch
from .errors import InputError
from .metrics import predictive_entropy
from .utility import UtilityMatrix


@dataclass(frozen=True)
class BatchDecisions:
    decisions: np.ndarray  # (N,)
    argmax_preds: np.ndarray  # (N,)
    expected_gains: np.ndarray  # (N, K)
    mixture: np.ndarray  # (N, K)
    particle_preds: np.ndarray  # (M, N) argmax class of each particle

    def __len__(self) -> int:
        return int(self.decisions.shape[0])

    @cached_property
    def entropy(self) -> np.ndarray:
        """(N,) predictive entropy of the mixture, computed on the first read."""
        return predictive_entropy(self.mixture)


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


def write_predictions_csv(batch: BatchDecisions, path) -> None:
    """Per-sample decisions: index,decision,argmax_pred,entropy,maxprob. The rows
    are the csv module's excel-dialect bytes (repr floats, CRLF), streamed."""
    rows = zip(
        batch.decisions.tolist(),
        batch.argmax_preds.tolist(),
        batch.entropy.tolist(),
        batch.mixture.max(axis=1).tolist(),
    )
    with open(path, "w", newline="") as fh:
        fh.write("index,decision,argmax_pred,entropy,maxprob\r\n")
        fh.writelines(f"{i},{d},{a},{e!r},{m!r}\r\n" for i, (d, a, e, m) in enumerate(rows))
