"""Ensembles of parameter particles sharing one network shape.

The ensemble approximates a distribution over parameters with M equally
weighted point masses. Prediction mixes the per-particle class distributions; the
repulsive regularizer trades an L2 pull toward zero against a spread bonus,
half the summed log of the per-coordinate particle variance.
"""

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericError, ParseError, naming
from .numcore import NetShape, forward_logprobs_batch, param_count

CHECKPOINT_MAGIC = b"TAILENS-ENSEMBLE"
CHECKPOINT_VERSION = 1


@dataclass
class ParticleEnsemble:
    shape: NetShape
    particles: np.ndarray  # (M, P) float64

    def __post_init__(self):
        self.particles = np.asarray(self.particles, dtype=np.float64)
        if self.particles.ndim != 2:
            raise InputError(f"particles must be (M, P), got {self.particles.shape}")
        m, p = self.particles.shape
        if m < 1:
            raise InputError("need at least one particle")
        if p != param_count(self.shape):
            raise InputError(
                f"particles have {p} params, shape wants {param_count(self.shape)}"
            )
        if not np.all(np.isfinite(self.particles)):
            raise InputError("particles must be finite")

    @property
    def n_particles(self) -> int:
        return int(self.particles.shape[0])

    @property
    def mixture_weights(self) -> np.ndarray:
        """(M,) equal weights 1/M, as a deep ensemble averages its members."""
        return np.full(self.n_particles, 1.0 / self.n_particles)


def predictive_logprobs_batch(ens: ParticleEnsemble, x: np.ndarray):
    """Per-particle log-probs (M, N, K) and the mixture distribution (N, K)."""
    per_particle = forward_logprobs_batch(ens.shape, ens.particles, x)
    mixture = np.einsum("m,mnk->nk", ens.mixture_weights, np.exp(per_particle))
    return per_particle, mixture


class RegularizerValue(NamedTuple):
    l2_term: float
    entropy_term: float
    grad: np.ndarray  # (M, P) gradient of weight_decay * l2_term - anneal * entropy_term


def regularizer(
    ens: ParticleEnsemble, var_floor: float = 1e-8, *, weight_decay: float = 0.0,
    anneal: float = 0.0,
) -> RegularizerValue:
    """The L2 and spread terms and the gradient of weight_decay * L2 - anneal * spread.

    One pass: the squares, the mean and the floored per-coordinate variance are
    each formed once. The variance is the mean of squares minus the square of
    the mean; the spread gradient is (theta - mean) / (M * (var + floor)). With
    one particle the spread term is 0 and has no gradient. TrainConfig checks floor > 0.
    """
    # each mean is np.mean's sum then divide by M, without its per-call overhead
    particles, m = ens.particles, ens.n_particles
    squares = particles**2
    l2 = float(squares.sum(axis=1).sum() / m)
    grad = (2.0 * weight_decay / m) * particles
    if m == 1:
        return RegularizerValue(l2_term=l2, entropy_term=0.0, grad=grad)
    mean = particles.sum(axis=0) / m
    spread_grad = particles - mean
    floored = squares.sum(axis=0) / m - mean**2
    floored += var_floor
    entropy = float(0.5 * np.log(floored).sum())
    if anneal != 0.0:
        spread_grad /= m * floored
        spread_grad *= anneal
        grad -= spread_grad
    return RegularizerValue(l2_term=l2, entropy_term=entropy, grad=grad)


def regularizer_grad(
    ens: ParticleEnsemble, weight_decay: float, anneal: float, var_floor: float = 1e-8
) -> np.ndarray:
    """(M, P) gradient of the combined regularizer w.r.t. each particle."""
    return regularizer(ens, var_floor, weight_decay=weight_decay, anneal=anneal).grad


class DiversityDiagnostics(NamedTuple):
    param_distance: float  # mean pairwise Euclidean distance between particles
    disagreement: float  # mean pairwise argmax disagreement rate on the inputs


def diversity_diagnostics(ens: ParticleEnsemble, preds: np.ndarray) -> DiversityDiagnostics:
    """Spread of the particles and of their argmax predictions preds (M, N), one
    row per particle, unchecked."""
    m = ens.n_particles
    if m == 1:
        return DiversityDiagnostics(0.0, 0.0)
    dist_sum = 0.0
    disagree_sum = 0.0
    pairs = 0
    with np.errstate(over="ignore"):  # a norm's squares may overflow: raised below
        for a in range(m):
            for b in range(a + 1, m):
                dist_sum += float(np.linalg.norm(ens.particles[a] - ens.particles[b]))
                disagree_sum += float(np.mean(preds[a] != preds[b]))
                pairs += 1
    if not np.isfinite(dist_sum):
        raise NumericError("param_distance overflows float64: the particles lie too far apart")
    return DiversityDiagnostics(dist_sum / pairs, disagree_sum / pairs)


def save_checkpoint(ens: ParticleEnsemble, path) -> None:
    """Versioned binary dump; reload reproduces the ensemble exactly."""
    header = {
        "version": CHECKPOINT_VERSION,
        "input_dim": ens.shape.input_dim,
        "hidden": list(ens.shape.hidden),
        "num_classes": ens.shape.num_classes,
        "n_particles": ens.n_particles,
        "param_count": param_count(ens.shape),
    }
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + b"\n")
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(ens.mixture_weights.astype("<f8").tobytes())
        fh.write(ens.particles.astype("<f8").tobytes())


def _header_layout(header):
    """(n_particles, param_count, shape) from a checkpoint header, each field checked."""
    if not isinstance(header, dict):
        raise ParseError("checkpoint header is not a JSON object", line=2)
    if type(header.get("version")) is not int or header["version"] != CHECKPOINT_VERSION:
        raise ParseError(f"unsupported checkpoint version {header.get('version')!r}", line=2)
    hidden = header.get("hidden")
    counts = ("input_dim", "num_classes", "n_particles", "param_count")
    fields = {key: [header.get(key)] for key in counts}
    fields["hidden"] = hidden if isinstance(hidden, list) else [None]
    bad = [key for key, vals in fields.items() if any(type(v) is not int or v < 1 for v in vals)]
    if bad:
        raise ParseError(f"checkpoint header fields {bad} must be positive integers", line=2)
    try:
        shape = NetShape(header["input_dim"], tuple(hidden), header["num_classes"])
    except InputError as err:
        raise ParseError(f"checkpoint header: {err}", line=2) from None
    if header["param_count"] != param_count(shape):
        raise ParseError("checkpoint header param count disagrees with shape", line=2)
    return header["n_particles"], header["param_count"], shape


def load_checkpoint(path) -> ParticleEnsemble:
    with naming(path), open(path, "rb") as fh:
        magic = fh.readline().rstrip(b"\n")
        if magic != CHECKPOINT_MAGIC:
            raise ParseError(f"not an ensemble checkpoint (magic {magic!r})", line=1)
        try:
            header = json.loads(fh.readline())
        except (ValueError, RecursionError):
            raise ParseError("corrupt checkpoint header", line=2) from None
        m, p, shape = _header_layout(header)
        payload = fh.read()
        expected = 8 * (m + m * p)
        if len(payload) != expected:
            raise ParseError(
                f"checkpoint payload has {len(payload)} bytes, expected {expected}"
            )
        if payload[: 8 * m] != np.full(m, 1.0 / m).astype("<f8").tobytes():
            raise ParseError("checkpoint mixture weights must each be 1/M")
        particles = (
            np.frombuffer(payload[8 * m :], dtype="<f8").astype(np.float64).reshape(m, p)
        )
        try:
            return ParticleEnsemble(shape=shape, particles=particles)
        except InputError as err:
            raise ParseError(f"checkpoint payload: {err}") from None
