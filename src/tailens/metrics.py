"""Evaluation metrics for long-tailed decisions.

Covers region-wise accuracy, the false head rate (share of tail-labeled
samples decided as head), predictive entropy, ranking AUC of uncertainty
against misclassification, and binned expected calibration error.
"""

import csv
import json
import warnings
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError


class RegionAccuracy(NamedTuple):
    """Accuracy overall and per region; the field names are the `metrics.json` keys."""

    acc_overall: float
    acc_head: float | None
    acc_med: float | None
    acc_tail: float | None


def region_accuracy(
    labels: np.ndarray, decisions: np.ndarray, num_classes: int
) -> RegionAccuracy:
    """Accuracy overall and per region, None for an empty region. The first K // 3
    class ids are head, the next K // 3 medium and the rest tail."""
    labels = np.asarray(labels)
    decisions = np.asarray(decisions)
    if labels.shape != decisions.shape or labels.ndim != 1 or labels.size == 0:
        raise InputError("labels and decisions must be aligned non-empty vectors")
    if num_classes < 3:
        raise InputError(f"head/medium/tail regions need K >= 3, got {num_classes}")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise InputError(f"labels must lie in [0, {num_classes})")
    correct = labels == decisions
    region = np.minimum(labels // (num_classes // 3), 2)
    hits = (correct[region == r] for r in range(3))
    regions = (float(h.mean()) if h.size else None for h in hits)
    return RegionAccuracy(float(correct.mean()), *regions)


def false_head_rate(labels: np.ndarray, decisions: np.ndarray, tail_mask: np.ndarray) -> float:
    """Share of tail-labeled samples whose decision landed in the head of the (K,) mask."""
    labels = np.asarray(labels)
    decisions = np.asarray(decisions)
    if labels.shape != decisions.shape or labels.ndim != 1:
        raise InputError("labels and decisions must be aligned vectors")
    k = tail_mask.shape[0]
    for name, ids in (("labels", labels), ("decisions", decisions)):
        if ids.size and (ids.min() < 0 or ids.max() >= k):
            raise InputError(f"{name} must lie in [0, {k})")
    is_tail_label = tail_mask[labels]
    if not is_tail_label.any():
        warnings.warn("no tail-labeled samples; false head rate is 0", stacklevel=2)
        return 0.0
    decided_head = ~tail_mask[decisions]
    return float(np.mean(decided_head[is_tail_label]))


def predictive_entropy(probs: np.ndarray) -> np.ndarray | float:
    """-sum p log p over the last axis, with 0 log 0 = 0."""
    probs = np.asarray(probs, dtype=np.float64)
    positive = probs > 0
    terms = np.where(positive, probs, 1.0)  # the one (N, K) temporary, reused in place
    np.log(terms, out=terms)  # 0.0 where p <= 0 or p is NaN
    np.multiply(terms, probs, out=terms, where=positive)
    return -terms.sum(axis=-1)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean rank of their group. The groups
    come from the one stable sort: a group starts where the sorted value changes,
    and every NaN (they sort last) falls in one group."""
    sorter = np.argsort(values, kind="stable")
    ordered = values[sorter]
    n = ordered.shape[0]
    starts = np.empty(n, dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    starts[n - np.count_nonzero(np.isnan(ordered)) + 1 :] = False
    first = np.flatnonzero(starts)
    counts = np.diff(first, append=n)
    ranks = np.empty(n, dtype=np.float64)
    ranks[sorter] = np.repeat(0.5 * (2 * first + counts - 1) + 1.0, counts)
    return ranks


def auc_misclassification(uncertainty: np.ndarray, correct: np.ndarray) -> float | None:
    """Rank AUC of uncertainty as a detector of incorrect predictions.

    Ties count half. Returns None when the split is degenerate (all correct
    or all incorrect), where the ranking problem does not exist.
    """
    uncertainty = np.asarray(uncertainty, dtype=np.float64)
    correct = np.asarray(correct, dtype=bool)
    if uncertainty.shape != correct.shape or uncertainty.ndim != 1:
        raise InputError("uncertainty and correctness must be aligned vectors")
    n_pos = int((~correct).sum())  # positives = misclassified
    n_neg = int(correct.sum())
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = _average_ranks(uncertainty)
    pos_rank_sum = ranks[~correct].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def expected_calibration_error(
    confidence: np.ndarray, correct: np.ndarray, bins: int = 15
) -> float:
    """Equal-width bins on (0, 1], right-closed; weighted |accuracy - confidence|."""
    confidence = np.asarray(confidence, dtype=np.float64)
    correct = np.asarray(correct, dtype=bool)
    if confidence.shape != correct.shape or confidence.ndim != 1 or confidence.size == 0:
        raise InputError("confidence and correctness must be aligned non-empty vectors")
    if bins < 1:
        raise InputError(f"need at least one bin, got {bins}")
    # stated as what must hold, so NaN confidences fail it
    if not np.all((confidence >= 0.0) & (confidence <= 1.0)):
        raise InputError("confidences must lie in [0, 1]")
    idx = np.clip(np.ceil(confidence * bins).astype(np.int64) - 1, 0, bins - 1)
    total = confidence.shape[0]
    ece = 0.0
    for b in range(bins):
        mask = idx == b
        if not mask.any():
            continue
        gap = abs(float(correct[mask].mean()) - float(confidence[mask].mean()))
        ece += (mask.sum() / total) * gap
    return float(ece)


@dataclass
class MetricsReport:
    acc_overall: float
    acc_head: float | None
    acc_med: float | None
    acc_tail: float | None
    fhr: dict[float, float]  # tail ratio -> false head rate
    fhr_avg: float
    auc: float | None
    ece: float
    n_test: int
    param_distance: float | None = None
    disagreement: float | None = None


def report_to_json(report: MetricsReport) -> str:
    """The report's fields, with the tail ratios of `fhr` as string keys, as strict
    JSON: a non-finite value raises ValueError."""
    fields = {**asdict(report), "fhr": {str(r): v for r, v in report.fhr.items()}}
    return json.dumps(fields, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_summary_csv(rows: list[dict], path) -> None:
    """Multi-run summary table; column order follows the first row's keys."""
    if not rows:
        raise InputError("nothing to summarize")
    header = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            if list(row.keys()) != header:
                raise InputError("summary rows must share one column layout")
            writer.writerow(["" if row[k] is None else row[k] for k in header])
