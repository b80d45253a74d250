"""Long-tailed classification datasets: synthetic generation, CSV I/O, class splits.

Synthetic data is K isotropic unit-variance Gaussians in R^D whose means sit on
a sphere of radius `separation`. Training counts decay geometrically from
n_max for class 0 down to n_max/imbalance for class K-1; test sets are uniform.
"""

import csv
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ParseError, names_file


@dataclass
class LongTailDataset:
    features: np.ndarray  # (N, D) float64
    labels: np.ndarray  # (N,) int64 in [0, K)
    num_classes: int  # K

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise InputError(f"features must be (N, D), got shape {self.features.shape}")
        if self.labels.ndim != 1 or self.labels.shape[0] != self.features.shape[0]:
            raise InputError("labels must be a vector aligned with features rows")
        k = self.num_classes
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= k):
            raise InputError(f"labels must lie in [0, {k})")

    @property
    def class_counts(self) -> np.ndarray:
        """(K,) int64 samples per class, 0 for a class without samples."""
        return np.bincount(self.labels, minlength=self.num_classes)

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])

    def __len__(self) -> int:
        return int(self.labels.shape[0])


def tail_mask(num_classes: int, ratio: float) -> np.ndarray:
    """(K,) bool head/tail split: True on the last ceil(ratio*K) class ids."""
    if not 0.0 < ratio < 1.0:
        raise InputError(f"tail ratio must be in (0, 1), got {ratio}")
    if num_classes < 1:
        raise InputError("need at least one class")
    mask = np.zeros(num_classes, dtype=bool)
    mask[num_classes - math.ceil(ratio * num_classes) :] = True
    return mask


def train_class_counts(num_classes: int, n_max: int, imbalance: float) -> np.ndarray:
    """count_k = round(n_max * imbalance^(-k/(K-1))), non-increasing in k and >= 1."""
    if num_classes < 2:
        raise InputError("need at least 2 classes")
    if n_max < num_classes:
        raise InputError(f"n_max must be >= K, got n_max={n_max} K={num_classes}")
    if imbalance < 1.0:
        raise InputError(f"imbalance factor must be >= 1, got {imbalance}")
    ks = np.arange(num_classes)
    counts = np.round(n_max * imbalance ** (-ks / (num_classes - 1))).astype(np.int64)
    if counts[-1] < 1:
        empty = np.flatnonzero(counts < 1).tolist()
        raise InputError(
            f"n_max={n_max} and imbalance={imbalance} leave classes {empty} without samples"
        )
    return counts


def _class_means(num_classes, dim, separation, rng):
    means = np.empty((num_classes, dim))
    for k in range(num_classes):
        v = rng.standard_normal(dim)
        norm = np.linalg.norm(v)
        while norm < 1e-12:
            v = rng.standard_normal(dim)
            norm = np.linalg.norm(v)
        means[k] = separation * v / norm
    return means


def generate_synthetic(
    num_classes: int,
    dim: int,
    n_max: int,
    imbalance: float,
    separation: float,
    seed: int,
    test_per_class: int = 100,
) -> tuple[LongTailDataset, LongTailDataset]:
    """Seed-deterministic (train, test) pair; same seed gives identical arrays."""
    if dim < 1:
        raise InputError(f"dim must be >= 1, got {dim}")
    if separation < 0:
        raise InputError(f"separation must be >= 0, got {separation}")
    if test_per_class < 1:
        raise InputError(f"test_per_class must be >= 1, got {test_per_class}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    counts = train_class_counts(num_classes, n_max, imbalance)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    means = _class_means(num_classes, dim, separation, rng)

    def draw(per_class):
        xs, ys = [], []
        for k in range(num_classes):
            n = int(per_class[k])
            xs.append(means[k] + rng.standard_normal((n, dim)))
            ys.append(np.full(n, k, dtype=np.int64))
        return LongTailDataset(
            features=np.concatenate(xs),
            labels=np.concatenate(ys),
            num_classes=num_classes,
        )

    train = draw(counts)
    test = draw(np.full(num_classes, test_per_class, dtype=np.int64))
    return train, test


# save_csv turns at most this many features into Python floats at once, so
# its memory does not grow with the row count
_BLOCK_VALUES = 1 << 14


def _row_blocks(data: LongTailDataset):
    """(first row, features, labels) of consecutive row blocks of the dataset."""
    step = max(1, _BLOCK_VALUES // max(data.dim, 1))
    for start in range(0, len(data), step):
        yield start, data.features[start : start + step], data.labels[start : start + step]


def save_csv(data: LongTailDataset, path) -> None:
    """Header f0..f{D-1},label, then one row per sample: features as repr, which
    round-trips float64 exactly, and CRLF ends (the csv module's excel-dialect
    bytes), streamed a block of rows at a time. A non-finite feature, which
    load_csv rejects, raises InputError before the file is opened."""
    for start, x, _ in _row_blocks(data):
        finite = np.isfinite(x).all(axis=1)
        if not finite.all():
            i = start + int(np.argmin(finite))
            raise InputError(f"non-finite feature in {data.features[i].tolist()}", row=i)
    with open(path, "w", newline="") as fh:
        fh.write(",".join([f"f{i}" for i in range(data.dim)] + ["label"]) + "\r\n")
        for _, x, y in _row_blocks(data):
            rows = zip(x.tolist(), y.tolist())
            fh.writelines(",".join(map(repr, row + [label])) + "\r\n" for row, label in rows)


# One parser defines what a data row is: comma-separated, optionally
# double-quoted fields; blank lines skipped; no comment lines.
_LOADTXT = dict(delimiter=",", comments=None, quotechar='"', ndmin=1)


def _parse_rows(lines, dim) -> np.ndarray:
    """(N,) structured rows with fields x (D float64) and y (int64)."""
    row = np.dtype([("x", np.float64, (dim,)), ("y", np.int64)])
    with warnings.catch_warnings():
        # a file without data rows is reported by the caller, with its line
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(lines, dtype=row, **_LOADTXT)


def _data_lines(path):
    """(file line number, text) of every non-blank line after the header."""
    with open(path, newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno > 1 and line.strip("\r\n"):
                yield lineno, line


def _line_of(path, row: int) -> int:
    """File line of data row `row`, skipping blank lines as the parse does."""
    return next(itertools.islice(_data_lines(path), row, None))[0]


def _check_labels(labels, num_classes, line_of) -> None:
    """Reject the first negative label or label >= K; line_of maps its row to a file line."""
    bad = labels < 0
    if num_classes is not None:
        bad |= labels >= num_classes
    if bad.any():
        i = int(np.argmax(bad))
        label = int(labels[i])
        reason = "is negative" if label < 0 else f"is not below K={num_classes}"
        raise ParseError(f"label {label} {reason}", line=line_of(i))


def _first_rejected_line(path, dim, num_classes):
    """Parse a malformed file line by line and raise for the first line that fails."""
    for lineno, line in _data_lines(path):
        try:
            row = _parse_rows([line], dim)
        except ValueError:
            fields = np.loadtxt([line], dtype=str, **_LOADTXT).tolist()
            if len(fields) != dim + 1:
                raise ParseError(
                    f"expected {dim + 1} columns, got {len(fields)}", line=lineno
                ) from None
            try:
                np.loadtxt([line], dtype=np.float64, usecols=range(dim), **_LOADTXT)
            except ValueError:
                raise ParseError(f"non-numeric feature in {fields[:-1]}", line=lineno) from None
            raise ParseError(f"label {fields[-1]!r} is not an integer", line=lineno) from None
        # a label out of range before the first unparsable line is the one to report
        _check_labels(row["y"], num_classes, lambda _: lineno)


@names_file
def load_csv(path, num_classes=None) -> LongTailDataset:
    """Parse a feature CSV; K is num_classes, else max label + 1. Errors name file and line."""
    with open(path, newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise ParseError("empty file", line=1) from None
        if len(header) < 2 or header[-1].strip() != "label":
            raise ParseError("header must end with a 'label' column", line=1)
        dim = len(header) - 1
        try:
            rows = _parse_rows(fh, dim)
        except ValueError as err:
            _first_rejected_line(path, dim, num_classes)
            raise ParseError(str(err)) from None
    if rows.size == 0:
        raise ParseError("no data rows", line=2)
    # one C-contiguous copy: the strided field view could take the forward's
    # matmul down another BLAS kernel and change output bits
    features = np.ascontiguousarray(rows["x"])
    labels = np.ascontiguousarray(rows["y"])
    _check_labels(labels, num_classes, lambda i: _line_of(path, i))
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ParseError(f"non-finite feature in {features[i].tolist()}", line=_line_of(path, i))
    k = int(labels.max()) + 1 if num_classes is None else num_classes
    return LongTailDataset(features=features, labels=labels, num_classes=k)
