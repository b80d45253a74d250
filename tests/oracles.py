"""Frozen oracles: earlier versions of package code, kept as the reference that
the current code must match bit for bit or byte for byte.

Each docstring names the commit whose code it freezes. Change an oracle only
when the behaviour it pins is changed on purpose, and say so where it changes.
"""

import contextlib
import csv
import functools

import numpy as np

from tailens.dataset import LongTailDataset
from tailens.decision import BatchDecisions
from tailens.ensemble import predictive_logprobs_batch
from tailens.errors import ParseError
from tailens.numcore import backward_batch, unpack
from tailens.objective import LossBreakdown


def _utf8_error(path) -> ParseError:
    """errors.utf8_error at d8dd93c: the first line, split at LF, that changes
    when its undecodable bytes are dropped."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.decode("utf-8", "ignore").encode() != line:
                return ParseError("not UTF-8 text", line=lineno)


def _names_file(load):
    """errors.names_file at d8dd93c, with the UnicodeDecodeError branch of its
    `naming`: errors, and text that is not UTF-8, become ParseErrors that begin
    with the path. Frozen with row_parser, which it decorates."""

    @contextlib.contextmanager
    def naming(path):
        try:
            try:
                yield
            except UnicodeDecodeError:
                raise _utf8_error(path) from None
        except ParseError as err:
            err.args = (f"{path}: {err}",)
            raise

    @functools.wraps(load)
    def wrapped(path, *args, **kwargs):
        with naming(path):
            return load(path, *args, **kwargs)

    return wrapped


@_names_file
def row_parser(path, num_classes=None) -> LongTailDataset:
    """load_csv as it parsed row by row in Python at e960899, before the
    one-pass parse. Frozen as the reference of load_csv."""
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
    return LongTailDataset(features=feats, labels=labels, num_classes=k)


def unique_ranks(values):
    """metrics._average_ranks as it stood at fbc8142, finding the tie groups with
    np.unique, which sorts the sorted values again; frozen as its bitwise oracle.
    np.unique puts every NaN in one group."""
    sorter = np.argsort(values, kind="stable")
    _, first, counts = np.unique(values[sorter], return_index=True, return_counts=True)
    ranks = np.empty(values.shape[0], dtype=np.float64)
    ranks[sorter] = np.repeat(0.5 * (2 * first + counts - 1) + 1.0, counts)
    return ranks


def csv_writer_save(data, path):
    """save_csv as it stood on csv.writer at 65d3fef, frozen as a byte oracle."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(data.dim)] + ["label"])
        for row, label in zip(data.features, data.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def where_entropy(probs):
    """predictive_entropy as it stood at 07be541, masking with two np.where calls
    over four (N, K) temporaries; frozen as its bitwise oracle."""
    probs = np.asarray(probs, dtype=np.float64)
    terms = np.where(probs > 0, probs * np.log(np.where(probs > 0, probs, 1.0)), 0.0)
    return -terms.sum(axis=-1)


def whole_array_gains(ens, utility, x):
    """The (M, N, K) per-particle log-probs, (N, K) mixture and (N, K) expected
    gains of decide_batch as it stood at 07be541, over the whole arrays at once;
    frozen as the oracle of the two (N, K) fields BatchDecisions held up to
    c341d1e."""
    per_particle, mixture = predictive_logprobs_batch(ens, x)
    mean_logp = np.einsum("m,mnk->nk", ens.mixture_weights, per_particle)
    shifted = np.exp(mean_logp - mean_logp.max(axis=1, keepdims=True))
    geo_pred = shifted / shifted.sum(axis=1, keepdims=True)
    return per_particle, mixture, geo_pred @ utility.values


def whole_array_decide(ens, utility, x):
    """decide_batch from one unblocked pass: whole_array_gains, then each per-row
    field from the whole (N, K) mixture as c341d1e's evaluate and writer read it,
    the entropy by 07be541's where_entropy; frozen as the bitwise oracle of the
    row-blocked decide."""
    per_particle, mixture, gains = whole_array_gains(ens, utility, x)
    decisions = gains.argmax(axis=1)
    return BatchDecisions(
        decisions=decisions,
        argmax_preds=mixture.argmax(axis=1),
        entropy=where_entropy(mixture),
        maxprob=mixture.max(axis=1),
        confidence=mixture[np.arange(len(mixture)), decisions],
        particle_preds=per_particle.argmax(axis=2),
    )


def csv_writer_predictions(batch, mixture, path):
    """The predictions writer as it stood on csv.writer at d238a22, frozen as a
    byte oracle. Its entropy and maxprob are that commit's, from the (N, K)
    mixture: entropy by where_entropy."""
    entropy = where_entropy(mixture)
    maxprob = mixture.max(axis=1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "decision", "argmax_pred", "entropy", "maxprob"])
        writer.writerows(
            zip(
                range(len(batch)),
                batch.decisions.tolist(),
                batch.argmax_preds.tolist(),
                map(repr, entropy.tolist()),
                map(repr, maxprob.tolist()),
            )
        )


def separate_passes(particles, weight_decay, anneal, var_floor):
    """The L2 term, spread term, spread gradient and combined gradient, each
    from its own pass as they were at 8fd0c11, before the one spread pass;
    frozen as the oracle. The spread gradient is None for one particle."""
    m = len(particles)
    l2 = float(np.mean(np.sum(particles**2, axis=1)))
    pull = (2.0 * weight_decay / m) * particles
    if m == 1:
        return l2, 0.0, None, pull
    variance = np.mean(particles**2, axis=0) - np.mean(particles, axis=0) ** 2
    entropy = float(0.5 * np.sum(np.log(variance + var_floor)))
    centered = particles - particles.mean(axis=0)
    variance = np.mean(particles**2, axis=0) - np.mean(particles, axis=0) ** 2
    spread_grad = centered / (m * (variance + var_floor))
    combined = pull if anneal == 0.0 else pull - anneal * spread_grad
    return l2, entropy, spread_grad, combined


def per_batch_formula(ens, x, y, weights, utility, *, utility_scale, weight_decay, anneal,
                      var_floor):
    """The loss as computed batch by batch at 8fd0c11, before the prepared step:
    cotangent built per batch, regularizer terms and gradient from separate
    passes. Frozen as the bitwise oracle of TrainingStep."""
    k = ens.shape.num_classes
    batch, m = x.shape[0], ens.n_particles
    scale = 1.0 / (batch * m)
    w = weights.normalized[y]
    u_rows = utility.values[y]
    cotangent = np.eye(k)[y] + u_rows / utility_scale
    cotangent *= -(w * scale)[:, None]
    per_particle, grads = backward_batch(ens.shape, ens.particles, x, cotangent)
    logp_true = per_particle[:, np.arange(batch), y]
    util_dot = np.einsum("mbk,bk->mb", per_particle, u_rows)
    nll_term = -scale * float(np.sum(w * logp_true))
    utility_term = -(scale / utility_scale) * float(np.sum(w * util_dot))

    p = ens.particles
    l2 = float(np.mean(np.sum(p**2, axis=1)))
    pull = (2.0 * weight_decay / m) * p
    if m == 1:
        entropy, reg_grad = 0.0, pull
    else:
        variance = np.mean(p**2, axis=0) - np.mean(p, axis=0) ** 2
        entropy = float(0.5 * np.sum(np.log(variance + var_floor)))
        spread_grad = (p - p.mean(axis=0)) / (m * (variance + var_floor))
        reg_grad = pull if anneal == 0.0 else pull - anneal * spread_grad
    total = nll_term + utility_term + weight_decay * l2 - anneal * entropy
    grads += reg_grad
    return LossBreakdown(nll_term, utility_term, l2, entropy, total), grads


def out_of_place_backward(shape, particles, x, cotangents):
    """The stacked backward of 8fd0c11, with every intermediate in a new array,
    frozen as the oracle for the kernel that runs log-softmax, dz and tanh' in
    place."""
    layers = unpack(shape, particles)
    acts = [x]
    for i, (w, b) in enumerate(layers):
        z = acts[-1] @ w.transpose(0, 2, 1) + b[:, None, :]
        acts.append(np.tanh(z) if i < len(layers) - 1 else z)
    logits = acts.pop()
    z = logits - logits.max(axis=-1, keepdims=True)
    logprobs = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    dz = cotangents - np.exp(logprobs) * cotangents.sum(axis=1, keepdims=True)
    grad = np.empty_like(particles)
    for i, (gw, gb) in reversed(list(enumerate(unpack(shape, grad)))):
        np.matmul(dz.transpose(0, 2, 1), acts[i], out=gw)
        dz.sum(axis=1, out=gb)
        if i > 0:
            dz = (dz @ layers[i][0]) * (1.0 - acts[i] ** 2)
    return logprobs, grad
