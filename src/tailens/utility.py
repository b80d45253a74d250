"""Utility matrices scoring (true class, decided class) pairs.

values[i][j] is the utility of deciding class j when the truth is class i.
Diagonal entries must be their row's maximum: no decision may beat the truth.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .dataset import _LOADTXT, tail_mask
from .errors import InputError, ParseError, naming, open_text, utf8


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


def tail_sensitive(num_classes: int, tail_ratio: float, penalty: float = 1.0) -> UtilityMatrix:
    """One-hot plus a -penalty entry for deciding head when the truth is tail."""
    if penalty < 0:
        raise InputError(f"penalty must be >= 0, got {penalty}")
    values = np.eye(num_classes)
    tail = tail_mask(num_classes, tail_ratio)
    values[np.ix_(tail, ~tail)] = -penalty
    return UtilityMatrix(num_classes, values)


def load_matrix(path) -> UtilityMatrix:
    """Read a headerless K x K CSV of utilities; errors name the file and the line."""
    rows, linenos = [], []
    with naming(path), open_text(path) as fh:
        reader = csv.reader(utf8(line, n) for n, line in enumerate(fh, start=1))
        try:
            for row in filter(None, reader):
                try:  # each field as a line in the data CSV's grammar, which rejects 1_0
                    values = np.loadtxt(row, dtype=np.float64, **_LOADTXT)
                    if values.shape != (len(row),):  # an empty field, or one with a comma
                        raise ValueError
                except ValueError:
                    raise ParseError(f"non-numeric utility in {row}", reader.line_num) from None
                rows.append(values)
                linenos.append(reader.line_num)
        except csv.Error as err:
            raise ParseError(str(err), line=reader.line_num) from None
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
