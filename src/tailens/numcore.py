"""Small dense networks on flat float64 parameter vectors.

A network is tanh hidden layers plus a linear output read out as log-softmax.
Parameters live in one flat vector so ensembles can treat a member as a point
in R^P: layer by layer, weight matrix first (row-major, shape fan_out x fan_in),
then bias. Everything here is float64 and deterministic.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class NetShape:
    input_dim: int
    hidden: tuple[int, ...]
    num_classes: int

    def __post_init__(self):
        dims = (self.input_dim, *self.hidden, self.num_classes)
        if any(int(d) != d or d < 1 for d in dims):
            raise InputError(f"layer sizes must be positive integers, got {dims}")
        if self.num_classes < 2:
            raise InputError(f"need at least 2 classes, got {self.num_classes}")

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden, self.num_classes)


def param_count(shape: NetShape) -> int:
    dims = shape.dims
    return sum(dims[i + 1] * dims[i] + dims[i + 1] for i in range(len(dims) - 1))


def unpack(shape: NetShape, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views (no copies) of the per-layer (W, b) pairs inside a flat vector."""
    params = np.asarray(params)
    if params.ndim != 1 or params.shape[0] != param_count(shape):
        raise InputError(
            f"expected flat vector of {param_count(shape)} params, got shape {params.shape}"
        )
    dims = shape.dims
    layers = []
    off = 0
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        w = params[off : off + fan_out * fan_in].reshape(fan_out, fan_in)
        off += fan_out * fan_in
        b = params[off : off + fan_out]
        off += fan_out
        layers.append((w, b))
    return layers


def init_params(shape: NetShape, rng: np.random.Generator) -> np.ndarray:
    """Uniform [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer, flattened."""
    dims = shape.dims
    chunks = []
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        bound = 1.0 / np.sqrt(fan_in)
        chunks.append(rng.uniform(-bound, bound, size=fan_out * fan_in))
        chunks.append(rng.uniform(-bound, bound, size=fan_out))
    return np.concatenate(chunks)


def _forward_cached(shape, params, x):
    """Activations for every layer; x is (N, input_dim)."""
    layers = unpack(shape, params)
    acts = [x]
    h = x
    for w, b in layers[:-1]:
        h = np.tanh(h @ w.T + b)
        acts.append(h)
    w, b = layers[-1]
    logits = h @ w.T + b
    return layers, acts, logits


def _log_softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def forward_logprobs_batch(shape: NetShape, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(N, input_dim) -> (N, num_classes) log-probabilities."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != shape.input_dim:
        raise InputError(f"expected (N, {shape.input_dim}) inputs, got {x.shape}")
    _, _, logits = _forward_cached(shape, params, x)
    return _log_softmax(logits)


def backward_batch(
    shape: NetShape, params: np.ndarray, x: np.ndarray, cotangents: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Log-probs (N, num_classes) and the flat-param gradient of
    sum_i cotangents[i] . logprobs(x[i]), both from one forward pass."""
    x = np.asarray(x, dtype=np.float64)
    cotangents = np.asarray(cotangents, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != shape.input_dim:
        raise InputError(f"expected (N, {shape.input_dim}) inputs, got {x.shape}")
    if cotangents.shape != (x.shape[0], shape.num_classes):
        raise InputError(
            f"expected cotangents of shape {(x.shape[0], shape.num_classes)},"
            f" got {cotangents.shape}"
        )
    layers, acts, logits = _forward_cached(shape, params, x)
    logprobs = _log_softmax(logits)
    probs = np.exp(logprobs)
    # d(c . logprobs)/d logits = c - softmax * sum(c)
    dz = cotangents - probs * cotangents.sum(axis=1, keepdims=True)

    grad = np.empty_like(np.asarray(params, dtype=np.float64))
    gview = unpack(shape, grad)
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        gw, gb = gview[i]
        np.matmul(dz.T, acts[i], out=gw)
        dz.sum(axis=0, out=gb)
        if i > 0:
            dz = (dz @ w) * (1.0 - acts[i] ** 2)
    return logprobs, grad
