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

import numpy as np

from .dataset import CsvRows
from .ensemble import ParticleEnsemble, predictive_logprobs_batch
from .errors import NumericError, require_same
from .metrics import predictive_entropy
from .numcore import check_finite_logprobs, check_inputs, class_id_dtype, row_blocks
from .utility import UtilityMatrix


@dataclass(frozen=True)
class BatchDecisions:
    """Per-row results. The class ids are numcore.class_id_dtype(K): one byte up
    to 256 classes, so a row takes 24 + 2 + M bytes."""

    decisions: np.ndarray  # (N,) expected-utility decision
    argmax_preds: np.ndarray  # (N,) argmax class of the mixture
    entropy: np.ndarray  # (N,) predictive entropy of the mixture
    maxprob: np.ndarray  # (N,) largest mixture probability
    confidence: np.ndarray  # (N,) mixture probability of the decision
    particle_preds: np.ndarray  # (M, N) argmax class of each particle

    def __len__(self) -> int:
        return int(self.decisions.shape[0])


def decide_batch(
    ens: ParticleEnsemble, utility: UtilityMatrix, x: np.ndarray | CsvRows
) -> BatchDecisions:
    """Decisions for the rows of x, an (N, D) array or a data CSV's CsvRows, made
    one row block of numcore.row_blocks(N) at a time into per-row outputs: no
    (M, N, K) or (N, K) array is ever whole, and CsvRows are decided as they are
    parsed, so neither are their (N, D) features. A row whose log-probs are not
    finite raises a NumericError naming it, and its file line for CsvRows; the
    overflows that lead there raise no warning."""
    require_same("utility matrix", utility.num_classes, "classes", "model", ens.shape.num_classes)
    if isinstance(x, CsvRows):
        n, blocks = len(x), x
    else:
        x = check_inputs(ens.shape, x)
        n = x.shape[0]
        blocks = (x[start:stop] for start, stop in row_blocks(n))
    ids = class_id_dtype(ens.shape.num_classes)
    out = BatchDecisions(
        decisions=np.empty(n, dtype=ids),
        argmax_preds=np.empty(n, dtype=ids),
        entropy=np.empty(n),
        maxprob=np.empty(n),
        confidence=np.empty(n),
        particle_preds=np.empty((ens.n_particles, n), dtype=ids),
    )
    # entered once per call: every non-finite value is caught at the log-probs
    with np.errstate(all="ignore"):
        for (start, stop), block in zip(row_blocks(n), blocks, strict=True):
            rows = slice(start, stop)
            per_particle, mixture = predictive_logprobs_batch(ens, block)  # checks the block
            try:
                check_finite_logprobs(per_particle)
            except NumericError as err:
                i = err.sample or 0  # the block's first row when none is finite
                where = f" ({x.path}: line {x.block_lines[i]})" if isinstance(x, CsvRows) else ""
                raise NumericError(f"{err.reason} at test row {start + i}{where}") from None
            mean_logp = np.einsum("m,mnk->nk", ens.mixture_weights, per_particle)
            mean_logp -= mean_logp.max(axis=1, keepdims=True)
            geo_pred = np.exp(mean_logp, out=mean_logp)
            geo_pred /= geo_pred.sum(axis=1, keepdims=True)
            # argmax writes only intp: a block temporary, then stored as compact ids
            decisions = (geo_pred @ utility.values).argmax(axis=1)
            out.decisions[rows] = decisions
            out.argmax_preds[rows] = mixture.argmax(axis=1)
            out.entropy[rows] = predictive_entropy(mixture)
            mixture.max(axis=1, out=out.maxprob[rows])
            out.confidence[rows] = mixture[np.arange(stop - start), decisions]
            out.particle_preds[:, rows] = per_particle.argmax(axis=2)
    return out


def write_predictions_csv(batch: BatchDecisions, path) -> None:
    """Per-sample decisions: index,decision,argmax_pred,entropy,maxprob. The rows
    are the csv module's excel-dialect bytes (repr floats, CRLF), streamed a row
    block at a time."""
    columns = (batch.decisions, batch.argmax_preds, batch.entropy, batch.maxprob)
    with open(path, "w", newline="") as fh:
        fh.write("index,decision,argmax_pred,entropy,maxprob\r\n")
        for start, stop in row_blocks(len(batch)):
            rows = zip(range(start, stop), *(col[start:stop].tolist() for col in columns))
            fh.writelines(f"{i},{d},{a},{e!r},{m!r}\r\n" for i, d, a, e, m in rows)
