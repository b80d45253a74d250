"""Utility matrices scoring (true class, decided class) pairs.

values[i][j] is the utility of deciding class j when the truth is class i.
Diagonal entries must be their row's maximum: no decision may beat the truth.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .dataset import TailSplit
from .errors import InputError, ParseError, names_file


@dataclass(frozen=True)
class UtilityMatrix:
    num_classes: int
    values: np.ndarray  # (K, K) float64

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        k = self.num_classes
        if values.shape != (k, k):
            raise InputError(f"expected a ({k}, {k}) matrix, got {values.shape}")
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            raise InputError("utility values must be finite", row=int(np.argmin(finite)))
        dominated = np.any(values > np.diag(values)[:, None], axis=1)
        if dominated.any():
            raise InputError("diagonal must be the row maximum", row=int(np.argmax(dominated)))


def one_hot(num_classes: int) -> UtilityMatrix:
    """Utility 1 for the correct decision, 0 otherwise."""
    if num_classes < 1:
        raise InputError("need at least one class")
    return UtilityMatrix(num_classes, np.eye(num_classes))


def tail_sensitive(num_classes: int, tail: TailSplit, penalty: float = 1.0) -> UtilityMatrix:
    """One-hot plus a -penalty entry for deciding head when the truth is tail."""
    if penalty < 0:
        raise InputError(f"penalty must be >= 0, got {penalty}")
    if tail.num_classes != num_classes:
        raise InputError(
            f"tail split is over {tail.num_classes} classes, matrix wants {num_classes}"
        )
    values = np.eye(num_classes)
    tail_mask = tail.tail_mask()
    values[np.ix_(tail_mask, ~tail_mask)] = -penalty
    return UtilityMatrix(num_classes, values)


@names_file
def load_matrix(path) -> UtilityMatrix:
    """Read a headerless K x K CSV of utilities; errors name the offending line."""
    rows, linenos = [], []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise ParseError(f"non-numeric utility in {row}", line=lineno) from None
            linenos.append(lineno)
    if not rows:
        raise ParseError("empty utility file", line=1)
    k = len(rows)
    for row, lineno in zip(rows, linenos):
        if len(row) != k:
            raise ParseError(
                f"expected {k} columns for a square matrix, got {len(row)}", line=lineno
            )
    try:
        return UtilityMatrix(k, np.asarray(rows, dtype=np.float64))
    except InputError as err:
        raise ParseError(err.reason, line=linenos[err.row]) from None
