"""Ensembles of parameter particles sharing one network shape.

The ensemble approximates a distribution over parameters with M weighted
point masses. Prediction mixes the per-particle class distributions; the
repulsive regularizer trades an L2 pull toward zero against a spread bonus,
half the summed log of the per-coordinate particle variance.
"""

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ParseError
from .numcore import NetShape, forward_logprobs_batch, param_count

CHECKPOINT_MAGIC = b"TAILENS-ENSEMBLE"
CHECKPOINT_VERSION = 1


@dataclass
class ParticleEnsemble:
    shape: NetShape
    particles: np.ndarray  # (M, P) float64
    mixture_weights: np.ndarray = None  # (M,) nonnegative, sums to 1

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
        if self.mixture_weights is None:
            self.mixture_weights = np.full(m, 1.0 / m)
        self.mixture_weights = np.asarray(self.mixture_weights, dtype=np.float64)
        if self.mixture_weights.shape != (m,):
            raise InputError("mixture weights must align with particles")
        if np.any(self.mixture_weights < 0) or abs(self.mixture_weights.sum() - 1.0) > 1e-9:
            raise InputError("mixture weights must be nonnegative and sum to 1")

    @property
    def n_particles(self) -> int:
        return int(self.particles.shape[0])


def predictive_logprobs_batch(ens: ParticleEnsemble, x: np.ndarray):
    """Per-particle log-probs (M, N, K) and the mixture distribution (N, K)."""
    per_particle = np.stack(
        [forward_logprobs_batch(ens.shape, theta, x) for theta in ens.particles]
    )
    mixture = np.einsum("m,mnk->nk", ens.mixture_weights, np.exp(per_particle))
    return per_particle, mixture


def l2_term(ens: ParticleEnsemble) -> float:
    """Mean squared parameter norm over particles."""
    return float(np.mean(np.sum(ens.particles**2, axis=1)))


def _coordinate_variance(particles):
    # population variance: mean of squares minus square of mean
    return np.mean(particles**2, axis=0) - np.mean(particles, axis=0) ** 2


def entropy_term(ens: ParticleEnsemble, var_floor: float = 1e-8) -> float:
    """Half the summed log of per-coordinate particle variance (floored)."""
    if var_floor <= 0:
        raise InputError(f"variance floor must be > 0, got {var_floor}")
    if ens.n_particles == 1:
        warnings.warn("spread term is 0 for a single particle", stacklevel=2)
        return 0.0
    var = _coordinate_variance(ens.particles)
    return float(0.5 * np.sum(np.log(var + var_floor)))


def entropy_grad(ens: ParticleEnsemble, var_floor: float = 1e-8) -> np.ndarray:
    """d(entropy_term)/d(particles): (theta - mean) / (M * (var + floor))."""
    if var_floor <= 0:
        raise InputError(f"variance floor must be > 0, got {var_floor}")
    if ens.n_particles == 1:
        return np.zeros_like(ens.particles)
    centered = ens.particles - ens.particles.mean(axis=0)
    var = _coordinate_variance(ens.particles)
    return centered / (ens.n_particles * (var + var_floor))


@dataclass(frozen=True)
class RegularizerValue:
    l2_term: float
    entropy_term: float


def regularizer(
    ens: ParticleEnsemble, weight_decay: float, anneal: float, var_floor: float = 1e-8
) -> RegularizerValue:
    if weight_decay < 0:
        raise InputError(f"weight decay must be >= 0, got {weight_decay}")
    return RegularizerValue(l2_term=l2_term(ens), entropy_term=entropy_term(ens, var_floor))


def regularizer_grad(
    ens: ParticleEnsemble, weight_decay: float, anneal: float, var_floor: float = 1e-8
) -> np.ndarray:
    """(M, P) gradient of the combined regularizer w.r.t. each particle."""
    pull = (2.0 * weight_decay / ens.n_particles) * ens.particles
    if anneal == 0.0:
        return pull
    return pull - anneal * entropy_grad(ens, var_floor)


@dataclass(frozen=True)
class DiversityDiagnostics:
    param_distance: float  # mean pairwise Euclidean distance between particles
    disagreement: float  # mean pairwise argmax disagreement rate on the inputs


def diversity_diagnostics(ens: ParticleEnsemble, preds: np.ndarray) -> DiversityDiagnostics:
    """Spread of the particles and of their argmax predictions preds (M, N)."""
    m = ens.n_particles
    if preds.shape[0] != m:
        raise InputError(f"expected predictions of {m} particles, got {preds.shape[0]}")
    if m == 1:
        return DiversityDiagnostics(0.0, 0.0)
    dist_sum = 0.0
    disagree_sum = 0.0
    pairs = 0
    for a in range(m):
        for b in range(a + 1, m):
            dist_sum += float(np.linalg.norm(ens.particles[a] - ens.particles[b]))
            disagree_sum += float(np.mean(preds[a] != preds[b]))
            pairs += 1
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
    if header.get("version") != CHECKPOINT_VERSION:
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
    with open(path, "rb") as fh:
        magic = fh.readline().rstrip(b"\n")
        if magic != CHECKPOINT_MAGIC:
            raise ParseError(f"not an ensemble checkpoint (magic {magic!r})", line=1)
        try:
            header = json.loads(fh.readline())
        except ValueError:
            raise ParseError("corrupt checkpoint header", line=2) from None
        m, p, shape = _header_layout(header)
        payload = fh.read()
    expected = 8 * (m + m * p)
    if len(payload) != expected:
        raise ParseError(
            f"checkpoint payload has {len(payload)} bytes, expected {expected}"
        )
    weights = np.frombuffer(payload[: 8 * m], dtype="<f8").astype(np.float64)
    particles = (
        np.frombuffer(payload[8 * m :], dtype="<f8").astype(np.float64).reshape(m, p)
    )
    return ParticleEnsemble(shape=shape, particles=particles, mixture_weights=weights)
