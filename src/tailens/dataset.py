"""Long-tailed classification datasets: synthetic generation, CSV I/O, class splits.

Synthetic data is K isotropic unit-variance Gaussians in R^D whose means sit on
a sphere of radius `separation`. Training counts decay geometrically from
n_max for class 0 down to n_max/imbalance for class K-1; test sets are uniform.
"""

import csv
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError, ParseError, naming, open_text, require_fits, utf8
from .numcore import class_id_dtype, row_blocks


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
    """(K,) bool head/tail split: True on the last ceil(ratio*K) class ids, ratio taken
    as the decimal it is written as: 0.07 of 100 is 7, though 0.07 * 100 rounds up."""
    if not 0.0 < ratio < 1.0:
        raise InputError(f"tail ratio must be in (0, 1), got {ratio}")
    if num_classes < 1:
        raise InputError("need at least one class")
    mask = np.zeros(num_classes, dtype=bool)
    mask[num_classes - math.ceil(Fraction(repr(float(ratio))) * num_classes) :] = True
    return mask


def train_class_counts(num_classes: int, n_max: int, imbalance: float) -> np.ndarray:
    """count_k = round(n_max * imbalance^(-k/(K-1))), non-increasing in k and >= 1."""
    if num_classes < 2:
        raise InputError("need at least 2 classes")
    if n_max < num_classes:
        raise InputError(f"n_max must be >= K, got n_max={n_max} K={num_classes}")
    if imbalance < 1.0:
        raise InputError(f"imbalance factor must be >= 1, got {imbalance}")
    require_fits("n_max", "class 0's labels", n_max)  # so every count fits int64
    ks = np.arange(num_classes)
    counts = np.round(n_max * imbalance ** (-ks / (num_classes - 1))).astype(np.int64)
    if counts[-1] < 1:
        empty = np.flatnonzero(counts < 1).tolist()
        raise InputError(
            f"n_max={n_max} and imbalance={imbalance} leave classes {empty} without samples"
        )
    return counts


def check_synthetic_sizes(counts: np.ndarray, dim: int, test_per_class: int) -> None:
    """That numpy can hold each array of a synthetic draw with these training class
    counts, before any is made: an InputError names the key of the first it cannot."""
    k = len(counts)
    require_fits("dim", "the class means", k, dim)
    require_fits("n_max", "the training features", sum(counts.tolist()), dim)
    require_fits("test_per_class", "the test features", k * test_per_class, dim)


def class_means(num_classes: int, dim: int, separation: float, rng) -> np.ndarray:
    """(K, D) class means on the sphere of radius separation, each a standard normal
    draw from rng (redrawn while its norm is below 1e-12), scaled: the first draws
    generate_synthetic makes from its seed's generator."""
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
    check_synthetic_sizes(counts, dim, test_per_class)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    with np.errstate(over="ignore"):
        means = class_means(num_classes, dim, separation, rng)
    if not np.isfinite(means).all():
        raise InputError(f"separation {separation} overflows the class means")

    def draw(per_class):
        labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
        features = rng.standard_normal((len(labels), dim))
        features += means[labels]
        return LongTailDataset(features=features, labels=labels, num_classes=num_classes)

    train = draw(counts)
    test = draw(np.full(num_classes, test_per_class, dtype=np.int64))
    return train, test


def save_csv(data: LongTailDataset, path) -> None:
    """Header f0..f{D-1},label, then one row per sample: features as repr, which
    round-trips float64 exactly, and CRLF ends (the csv module's excel-dialect
    bytes), streamed one block of numcore.row_blocks(N) at a time. A non-finite
    feature, which load_csv rejects, raises InputError before the file is opened."""
    blocks = row_blocks(len(data))
    for start, stop in blocks:
        finite = np.isfinite(data.features[start:stop]).all(axis=1)
        if not finite.all():
            i = start + int(np.argmin(finite))
            raise InputError(f"non-finite feature in {data.features[i].tolist()}", row=i)
    with open(path, "w", newline="") as fh:
        fh.write(",".join([f"f{i}" for i in range(data.dim)] + ["label"]) + "\r\n")
        for start, stop in blocks:
            rows = zip(data.features[start:stop].tolist(), data.labels[start:stop].tolist())
            fh.writelines(",".join(map(repr, row + [label])) + "\r\n" for row, label in rows)


# One parser defines what a data row is: one line of comma-separated, optionally
# double-quoted fields; blank lines skipped; no comment lines. Lines are UTF-8.
_LOADTXT = dict(delimiter=",", comments=None, quotechar='"', ndmin=1)


def _parse_rows(lines, dim) -> np.ndarray:
    """(N,) structured rows with fields x (D float64) and y (int64)."""
    row = np.dtype([("x", np.float64, (dim,)), ("y", np.int64)])
    return np.loadtxt(lines, dtype=row, **_LOADTXT)


def _check_labels(labels, num_classes, linenos) -> None:
    """Reject the first negative label or label >= K, naming its file line in linenos."""
    bad = labels < 0
    if num_classes is not None:
        bad |= labels >= num_classes
    if bad.any():
        i = int(np.argmax(bad))
        label = int(labels[i])
        reason = "is negative" if label < 0 else f"is not below K={num_classes}"
        raise ParseError(f"label {label} {reason}", line=linenos[i])


class CsvRows:
    """A data CSV read one row block at a time, so its (N, D) features are never
    whole. Making one reads the header and, in the same pass, counts the N data rows,
    the non-blank lines after the header. Iterating parses the lines of each block of
    numcore.row_blocks(N) and yields its (rows, D) C-contiguous float64 features,
    filling the (N,) `labels` as it goes: int64, or given num_classes the compact
    numcore.class_id_dtype; `labels` is None until iterating starts. A block's text
    and parse are freed before it is yielded; `block_lines`, () before iterating, holds
    the file line of each row of the block just yielded: the one way to name a row's
    line. Each block is checked before the next is read: the first line that is not
    UTF-8, does not parse, or whose label is negative or (given num_classes) >= K,
    raises. A non-finite feature ends the yielding but is raised only once every row
    has passed those checks. Every error begins with the path and names the file line."""

    def __init__(self, path, num_classes=None):
        self.path, self.num_classes = path, num_classes
        with naming(path), open_text(path) as fh:
            reader = csv.reader(utf8(line, n) for n, line in enumerate(fh, start=1))
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError("empty file", line=1) from None
            except csv.Error as err:
                raise ParseError(str(err), line=reader.line_num) from None
            if len(header) < 2 or header[-1].strip() != "label":
                raise ParseError("header must end with a 'label' column", line=1)
            self.dim, self._header_lines = len(header) - 1, reader.line_num
            self._n, self.labels, self.block_lines = sum(line != "\n" for line in fh), None, ()
            if self._n == 0:
                raise ParseError("no data rows", line=2)

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        ids = np.int64 if self.num_classes is None else class_id_dtype(self.num_classes)
        self.labels = np.empty(len(self), dtype=ids)
        with naming(self.path), open_text(self.path) as fh:
            lines = itertools.islice(enumerate(fh, start=1), self._header_lines, None)
            rows = ((n, line) for n, line in lines if line != "\n")
            non_finite = None
            for start, stop in row_blocks(len(self)):
                features, bad = self._parse_block(rows, self.labels[start:stop])
                non_finite = non_finite or bad
                if non_finite is None:
                    yield features
            if non_finite is not None:
                lineno, values = non_finite
                raise ParseError(f"non-finite feature in {values}", line=lineno)

    def _parse_block(self, rows, labels):
        """Parse and check the next len(labels) (line number, line) rows, and write
        their labels into labels: their (rows, D) features, and the (file line,
        values) of the first row with a non-finite feature, or None."""
        linenos, texts = zip(*itertools.islice(rows, len(labels)))
        self.block_lines = linenos
        try:
            parsed = _parse_rows(texts, self.dim)
            if parsed.shape[0] != len(labels):
                raise ValueError("a quoted field spans lines")
        except ValueError as err:
            self._reject_first_bad_line(zip(linenos, texts))
            raise ParseError(str(err)) from None
        _check_labels(parsed["y"], self.num_classes, linenos)  # before a compact cast
        labels[:] = parsed["y"]
        # one C-contiguous copy: the strided field view could take the
        # forward's matmul down another BLAS kernel and change output bits
        features = np.ascontiguousarray(parsed["x"])
        bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
        return features, (linenos[bad[0]], features[bad[0]].tolist()) if bad.size else None

    def _reject_first_bad_line(self, rows) -> None:
        """Parse the (file line number, line) rows one at a time, and raise for the
        first line that is not UTF-8, does not parse or has a label out of range."""
        dim = self.dim
        for lineno, line in rows:
            utf8(line, lineno)
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
                    raise ParseError(
                        f"non-numeric feature in {fields[:-1]}", line=lineno
                    ) from None
                raise ParseError(f"label {fields[-1]!r} is not an integer", line=lineno) from None
            _check_labels(row["y"], self.num_classes, [lineno])


def load_csv(path, num_classes=None) -> LongTailDataset:
    """Parse a feature CSV; K is num_classes, else max label + 1. Errors name file and line."""
    rows = CsvRows(path, num_classes)
    features = np.empty((len(rows), rows.dim))
    for (start, stop), block in zip(row_blocks(len(rows)), rows, strict=True):
        features[start:stop] = block
    k = int(rows.labels.max()) + 1 if num_classes is None else num_classes
    return LongTailDataset(features=features, labels=rows.labels, num_classes=k)
