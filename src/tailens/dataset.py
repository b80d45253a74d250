"""Long-tailed classification datasets: synthetic generation, CSV I/O, class splits.

Synthetic data is K isotropic unit-variance Gaussians in R^D whose means sit on
a sphere of radius `separation`. Training counts decay geometrically from
n_max for class 0 down to n_max/imbalance for class K-1; test sets are uniform.
"""

import csv
import functools
import itertools
import math
from dataclasses import dataclass
from operator import methodcaller

import numpy as np

from .errors import InputError, ParseError, naming
from .numcore import row_blocks


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


# One parser defines what a data row is: one line of comma-separated, optionally
# double-quoted fields; blank lines skipped; no comment lines. Lines are UTF-8.
_LOADTXT = dict(delimiter=",", comments=None, quotechar='"', ndmin=1, encoding="utf-8")


def _lines(fh):
    """The lines of the binary file fh from where it stands, with their ends, split
    where text mode splits them: at LF, CRLF and a lone CR. Read 64 KiB at a time."""

    def chunks():
        tail = b""
        for chunk in iter(functools.partial(fh.read, 1 << 16), b""):
            lines = (tail + chunk).splitlines(keepends=True)
            # the last line may go on in the next chunk, and its CR be half a CRLF
            tail = b"" if chunk.endswith(b"\n") else lines.pop()
            yield lines
        yield [tail] if tail else []

    return itertools.chain.from_iterable(chunks())


def _count_rows(fh) -> int:
    """How many non-blank lines _lines(fh) gives, counted without making them:
    a non-blank line is a maximal run of bytes other than CR and LF."""
    n, ended = 0, True  # whether the byte before the chunk ends a line
    for chunk in iter(functools.partial(fh.read, 1 << 16), b""):
        codes = np.frombuffer(chunk, dtype=np.uint8)
        ends = (codes == ord("\n")) | (codes == ord("\r"))
        n += int(np.count_nonzero(ends[:-1] > ends[1:])) + (ended and not ends[0])
        ended = bool(ends[-1])
    return n


def _decode(line: bytes, lineno: int) -> str:
    try:
        return line.decode()
    except UnicodeDecodeError:
        raise ParseError("not UTF-8 text", line=lineno) from None


def _read_header(fh) -> tuple[int, int, int]:
    """(D, file line of the first data line, byte offset of that line) from the
    header record at the top of the binary file fh."""
    sizes = []

    def decoded():
        for lineno, line in enumerate(_lines(fh), start=1):
            sizes.append(len(line))
            yield _decode(line, lineno)

    reader = csv.reader(decoded())
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty file", line=1) from None
    if len(header) < 2 or header[-1].strip() != "label":
        raise ParseError("header must end with a 'label' column", line=1)
    return len(header) - 1, reader.line_num + 1, sum(sizes)


def _parse_rows(lines, dim) -> np.ndarray:
    """(N,) structured rows with fields x (D float64) and y (int64)."""
    row = np.dtype([("x", np.float64, (dim,)), ("y", np.int64)])
    return np.loadtxt(lines, dtype=row, **_LOADTXT)


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


class CsvRows:
    """A data CSV read one row block at a time, so its (N, D) features are never
    whole. Making one reads the header and counts the N data rows, the non-blank
    lines after the header. Iterating parses the lines of each block of
    numcore.row_blocks(N) and yields its (rows, D) C-contiguous float64 features,
    filling the (N,) `labels` as it goes. Each block is checked before the next is
    read: the first line that does not parse, or whose label is negative or (given
    num_classes) >= K, raises. A non-finite feature ends the yielding but is raised
    only once every row has passed those checks, so a row error anywhere beats it.
    Every error begins with the path and names the file line."""

    def __init__(self, path, num_classes=None):
        self.path, self.num_classes = path, num_classes
        with naming(path), open(path, "rb") as fh:
            self.dim, self._first_line, self._offset = _read_header(fh)
            fh.seek(self._offset)
            n = _count_rows(fh)
            if n == 0:
                raise ParseError("no data rows", line=2)
        self.labels = np.empty(n, dtype=np.int64)

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    def __iter__(self):
        with naming(self.path), open(self.path, "rb") as fh:
            fh.seek(self._offset)
            rows = filter(None, map(methodcaller("rstrip", b"\r\n"), _lines(fh)))
            non_finite = None
            for start, stop in row_blocks(len(self)):
                try:
                    parsed = _parse_rows(list(itertools.islice(rows, stop - start)), self.dim)
                    if parsed.shape[0] != stop - start:
                        raise ValueError("a quoted field spans lines")
                except ValueError as err:
                    self._reject_first_bad_line(start)
                    raise ParseError(str(err)) from None
                labels = self.labels[start:stop]
                labels[:] = parsed["y"]
                _check_labels(labels, self.num_classes, lambda i: self._line_of(start + i))
                # one C-contiguous copy: the strided field view could take the
                # forward's matmul down another BLAS kernel and change output bits
                features = np.ascontiguousarray(parsed["x"])
                if non_finite is None:
                    finite = np.isfinite(features).all(axis=1)
                    if finite.all():
                        yield features
                        continue
                    i = int(np.argmin(finite))
                    non_finite = start + i, features[i].tolist()
            if non_finite is not None:
                row, values = non_finite
                raise ParseError(f"non-finite feature in {values}", line=self._line_of(row))

    def _data_lines(self, start=0):
        """(file line number, bytes) of data row `start` and every one after it."""
        with open(self.path, "rb") as fh:
            fh.seek(self._offset)
            lines = enumerate(_lines(fh), start=self._first_line)
            data = ((n, line) for n, line in lines if line.strip(b"\r\n"))
            yield from itertools.islice(data, start, None)

    def _line_of(self, row: int) -> int:
        return next(self._data_lines(row))[0]

    def _reject_first_bad_line(self, start: int) -> None:
        """Parse the rows from row `start` on one line at a time, and raise for the
        first line that is not UTF-8, does not parse or has a label out of range."""
        dim = self.dim
        for lineno, line in self._data_lines(start):
            line = _decode(line, lineno)
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
            _check_labels(row["y"], self.num_classes, lambda _: lineno)


def load_csv(path, num_classes=None) -> LongTailDataset:
    """Parse a feature CSV; K is num_classes, else max label + 1. Errors name file and line."""
    rows = CsvRows(path, num_classes)
    features = np.empty((len(rows), rows.dim))
    for (start, stop), block in zip(row_blocks(len(rows)), rows, strict=True):
        features[start:stop] = block
    k = int(rows.labels.max()) + 1 if num_classes is None else num_classes
    return LongTailDataset(features=features, labels=rows.labels, num_classes=k)
