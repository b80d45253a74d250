"""Long-tailed classification datasets: synthetic generation, CSV I/O, class splits.

Synthetic data is K isotropic unit-variance Gaussians in R^D whose means sit on
a sphere of radius `separation`. Training counts decay geometrically from
n_max for class 0 down to n_max/imbalance for class K-1; test sets are uniform.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ParseError, names_file


@dataclass
class LongTailDataset:
    features: np.ndarray  # (N, D) float64
    labels: np.ndarray  # (N,) int64 in [0, K)
    class_counts: np.ndarray  # (K,) int64, counts per class
    split_tag: str = "data"

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.class_counts = np.asarray(self.class_counts, dtype=np.int64)
        if self.features.ndim != 2:
            raise InputError(f"features must be (N, D), got shape {self.features.shape}")
        if self.labels.ndim != 1 or self.labels.shape[0] != self.features.shape[0]:
            raise InputError("labels must be a vector aligned with features rows")
        k = self.class_counts.shape[0]
        if k < 1 or self.class_counts.ndim != 1:
            raise InputError("class_counts must be a non-empty vector")
        if np.any(self.class_counts < 0):
            raise InputError("class_counts must be nonnegative")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= k):
            raise InputError(f"labels must lie in [0, {k})")
        observed = np.bincount(self.labels, minlength=k)
        if not np.array_equal(observed, self.class_counts):
            raise InputError("class_counts disagree with the labels")

    @property
    def num_classes(self) -> int:
        return int(self.class_counts.shape[0])

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])

    def __len__(self) -> int:
        return int(self.labels.shape[0])


@dataclass(frozen=True)
class RegionPartition:
    """Head/medium/tail class-id regions in class-id order."""

    head: tuple[int, ...]
    med: tuple[int, ...]
    tail: tuple[int, ...]


@dataclass(frozen=True)
class TailSplit:
    """Binary head/tail split: `tail` holds the last ceil(ratio*K) class ids."""

    num_classes: int
    ratio: float
    tail: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.ratio < 1.0:
            raise InputError(f"tail ratio must be in (0, 1), got {self.ratio}")
        if self.num_classes < 1:
            raise InputError("need at least one class")
        n_tail = math.ceil(self.ratio * self.num_classes)
        object.__setattr__(
            self, "tail", tuple(range(self.num_classes - n_tail, self.num_classes))
        )

    def tail_mask(self) -> np.ndarray:
        mask = np.zeros(self.num_classes, dtype=bool)
        mask[list(self.tail)] = True
        return mask


def region_partition(num_classes: int) -> RegionPartition:
    """First floor(K/3) ids are head, next floor(K/3) medium, rest tail."""
    if num_classes < 3:
        raise InputError(f"region partition needs K >= 3, got {num_classes}")
    third = num_classes // 3
    ids = range(num_classes)
    return RegionPartition(
        head=tuple(ids[:third]),
        med=tuple(ids[third : 2 * third]),
        tail=tuple(ids[2 * third :]),
    )


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

    def draw(per_class, tag):
        xs, ys = [], []
        for k in range(num_classes):
            n = int(per_class[k])
            xs.append(means[k] + rng.standard_normal((n, dim)))
            ys.append(np.full(n, k, dtype=np.int64))
        return LongTailDataset(
            features=np.concatenate(xs) if xs else np.empty((0, dim)),
            labels=np.concatenate(ys) if ys else np.empty(0, dtype=np.int64),
            class_counts=np.asarray(per_class, dtype=np.int64),
            split_tag=tag,
        )

    train = draw(counts, "train")
    test = draw(np.full(num_classes, test_per_class, dtype=np.int64), "test")
    return train, test


def save_csv(data: LongTailDataset, path) -> None:
    """Header f0..f{D-1},label; float64 features written exactly (repr round-trip)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(data.dim)] + ["label"])
        for row, label in zip(data.features, data.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


@names_file
def load_csv(path, split_tag: str = "data", num_classes=None) -> LongTailDataset:
    """Parse a feature CSV; K is num_classes, else max label + 1. Errors name file and line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", line=1) from None
        if len(header) < 2 or header[-1].strip() != "label":
            raise ParseError("header must end with a 'label' column", line=1)
        dim = len(header) - 1

        feats, labels, linenos = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != dim + 1:
                raise ParseError(
                    f"expected {dim + 1} columns, got {len(row)}", line=lineno
                )
            try:
                feats.append([float(v) for v in row[:-1]])
            except ValueError:
                raise ParseError(f"non-numeric feature in {row[:-1]}", line=lineno) from None
            try:
                label = int(row[-1].strip())
            except ValueError:
                raise ParseError(f"label {row[-1]!r} is not an integer", line=lineno) from None
            if label < 0:
                raise ParseError(f"label {label} is negative", line=lineno)
            if num_classes is not None and label >= num_classes:
                raise ParseError(f"label {label} is not below K={num_classes}", line=lineno)
            labels.append(label)
            linenos.append(lineno)

    if not labels:
        raise ParseError("no data rows", line=2)
    feats = np.asarray(feats, dtype=np.float64)
    finite = np.isfinite(feats).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ParseError(f"non-finite feature in {feats[bad].tolist()}", line=linenos[bad])
    labels = np.asarray(labels, dtype=np.int64)
    k = int(labels.max()) + 1 if num_classes is None else num_classes
    counts = np.bincount(labels, minlength=k)
    return LongTailDataset(
        features=feats,
        labels=labels,
        class_counts=counts,
        split_tag=split_tag,
    )
