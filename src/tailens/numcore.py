"""Small dense networks, run for a whole (M, P) particle matrix at once.

A network is tanh hidden layers plus a linear output read out as log-softmax.
Each row of the matrix holds one member's parameters, layer by layer, weight
matrix first (row-major, shape fan_out x fan_in), then bias. The kernels run
all M networks in stacked (M, N, width) matmuls, and each particle's result is
bitwise the one it gets alone. Everything here is float64 and deterministic.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, NumericError

# Rows per block of every row-block loop (decisions, CSV reads and writes); the
# last block takes the remainder. BLAS picks a kernel by product size (OpenBLAS
# 0.3.31 rounds products of <= ~1,200 output entries differently), so blocks of
# >= 1,024 rows keep each forward layer of 2+ outputs, and the (rows, K) x (K, K)
# gains, on the kernel one product over all rows uses: blocking changes no bit.
BLOCK_ROWS = 1024


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

    @cached_property
    def layout(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """Per layer (weights start, bias start, bias stop, fan_out, fan_in) in a row."""
        dims, layers, off = self.dims, [], 0
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bias = off + fan_out * fan_in
            layers.append((off, bias, bias + fan_out, fan_out, fan_in))
            off = bias + fan_out
        return tuple(layers)


def param_count(shape: NetShape) -> int:
    return shape.layout[-1][2]


def unpack(shape: NetShape, particles: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views (no copies) of each layer's (M, out, in) weights and (M, out) biases."""
    particles, p = np.asarray(particles), param_count(shape)
    if particles.ndim != 2 or particles.shape[1] != p:
        raise InputError(f"expected an (M, {p}) particle matrix, got shape {particles.shape}")
    m = len(particles)
    return [
        (particles[:, start:bias].reshape(m, fan_out, fan_in), particles[:, bias:stop])
        for start, bias, stop, fan_out, fan_in in shape.layout
    ]


# a string annotation: importing numcore must not import numpy.random
def init_params(shape: NetShape, rng: "np.random.Generator") -> np.ndarray:
    """Uniform [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer, flattened."""
    chunks = []
    for _, _, _, fan_out, fan_in in shape.layout:
        bound = 1.0 / np.sqrt(fan_in)
        chunks.append(rng.uniform(-bound, bound, size=fan_out * fan_in))
        chunks.append(rng.uniform(-bound, bound, size=fan_out))
    return np.concatenate(chunks)


def row_blocks(n: int) -> list[tuple[int, int]]:
    """(start, stop) of the row blocks that tile [0, n) in order: BLOCK_ROWS rows
    each, the last block taking the remainder, one block when n < 2 * BLOCK_ROWS."""
    stops = [*range(BLOCK_ROWS, n - BLOCK_ROWS + 1, BLOCK_ROWS), n]
    return list(zip([0, *stops], stops))


def class_id_dtype(num_classes: int) -> np.dtype:
    """The smallest unsigned dtype that holds every class id below num_classes:
    uint8 up to 256 classes, uint16 up to 65,536."""
    return np.min_scalar_type(num_classes - 1)


def check_inputs(shape: NetShape, x: np.ndarray) -> np.ndarray:
    """x as a float64 (N, input_dim) array."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != shape.input_dim:
        raise InputError(f"expected (N, {shape.input_dim}) inputs, got {x.shape}")
    return x


def _forward(layers, x):
    """Layer inputs (x, then the (M, N, width) activations) and (M, N, K) logits."""
    acts = [x]
    for i, (w, b) in enumerate(layers):
        z = acts[-1] @ w.transpose(0, 2, 1)
        z += b[:, None, :]  # in place, as is tanh: one (M, N, width) array per layer
        acts.append(np.tanh(z, out=z) if i < len(layers) - 1 else z)
    return acts[:-1], acts[-1]


def _log_softmax(logits):
    """Log-softmax over the last axis, computed in place: logits is overwritten."""
    logits -= logits.max(axis=-1, keepdims=True)
    norm = np.exp(logits).sum(axis=-1, keepdims=True)
    logits -= np.log(norm, out=norm)
    return logits


def check_finite_logprobs(logprobs: np.ndarray) -> None:
    """A NumericError whose sample is the first row (axis 1) of the (M, N, K)
    log-probs that holds a non-finite value, if one does."""
    if not np.isfinite(logprobs).all():
        bad = int(np.argmax(~np.isfinite(logprobs).all(axis=(0, 2))))
        raise NumericError("non-finite log-probabilities", sample=bad)


def forward_logprobs_batch(shape: NetShape, particles: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(M, N, num_classes) log-probs, one product per layer over all the rows."""
    return _log_softmax(_forward(unpack(shape, particles), check_inputs(shape, x))[1])


def backward_batch(
    shape: NetShape, particles: np.ndarray, x: np.ndarray, cotangents: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Log-probs (M, N, num_classes) and the (M, P) gradients of
    sum_i cotangents[i] . logprobs_m(x[i]) for every particle m, from one
    forward pass over the whole particle matrix. The float64 (N, input_dim) rows
    and (N, num_classes) cotangents are the training step's, unchecked."""
    layers = unpack(shape, particles)
    acts, logits = _forward(layers, x)
    logprobs = _log_softmax(logits)
    # d(c . logprobs)/d logits = c - softmax * sum(c)
    dz = np.exp(logprobs)
    dz *= cotangents.sum(axis=1, keepdims=True)
    np.subtract(cotangents, dz, out=dz)

    grad = np.empty_like(particles, dtype=np.float64)
    for i, (gw, gb) in reversed(list(enumerate(unpack(shape, grad)))):
        np.matmul(dz.transpose(0, 2, 1), acts[i], out=gw)
        dz.sum(axis=1, out=gb)
        if i > 0:
            # tanh' = 1 - a**2, written over the activation, which is not read again
            slope = np.square(acts[i], out=acts[i])
            np.subtract(1.0, slope, out=slope)
            dz = dz @ layers[i][0]
            dz *= slope
    return logprobs, grad
