"""Class re-weighting against label-frequency discrepancy.

A weighting form f maps a class's training count to a size measure; classes
are weighted by 1/f(count) and rescaled so the weighted mean over training
samples is exactly 1 (the loss scale does not drift with the form).
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError

FORMS = ("linear", "power", "effective", "sqrt", "log", "plain")


@dataclass(frozen=True)
class DiscrepancySpec:
    form: str = "linear"
    gamma: float = 1.0  # power form exponent
    beta: float = 0.9999  # effective form decay

    def __post_init__(self):
        if self.form not in FORMS:
            raise InputError(f"ratio: unknown form {self.form!r}, pick one of {FORMS}")
        if not self.gamma >= 0:
            raise InputError(f"gamma (power exponent) must be >= 0, got {self.gamma}")
        if not 0.0 < self.beta < 1.0:
            raise InputError(f"beta (effective decay) must be in (0, 1), got {self.beta}")


@dataclass(frozen=True)
class ClassWeights:
    raw: np.ndarray  # (K,) 1/f(count)
    normalized: np.ndarray  # (K,) raw rescaled to weighted mean 1 over samples


def f_value(spec: DiscrepancySpec, n: int) -> float:
    """Size measure of a class with n >= 1 training samples (class_weights' check)."""
    n = float(n)
    if spec.form == "linear":
        return n
    if spec.form == "power":
        return n**spec.gamma
    if spec.form == "effective":
        return (1.0 - spec.beta**n) / (1.0 - spec.beta)
    if spec.form == "sqrt":
        return np.sqrt(n)
    if spec.form == "log":
        return np.log1p(n)
    return 1.0  # plain


def normalize_raw(raw: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Rescale raw weights so sum_k counts[k]*w[k] == sum_k counts[k]."""
    raw = np.asarray(raw, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    return raw * (counts.sum() / (counts * raw).sum())


def class_weights(spec: DiscrepancySpec, counts) -> ClassWeights:
    counts = np.asarray(counts)
    if counts.ndim != 1 or counts.size < 1:
        raise InputError("counts must be a non-empty vector")
    missing = np.flatnonzero(counts < 1)
    if missing.size:
        raise InputError(f"classes without training samples: {missing.tolist()}")
    try:
        raw = np.array([1.0 / f_value(spec, int(n)) for n in counts])
    except OverflowError:  # n**gamma past float64
        raise InputError(f"gamma {spec.gamma} overflows the power form") from None
    return ClassWeights(raw=raw, normalized=normalize_raw(raw, counts))


def growth_rate(weights: ClassWeights) -> float:
    """Percent increase of the raw weight from the largest class to the smallest."""
    return (weights.raw[-1] / weights.raw[0] - 1.0) * 100.0
