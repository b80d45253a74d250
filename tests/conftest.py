"""Shared builders and checks for the test suite."""

from dataclasses import fields

import numpy as np
import pytest

from tailens.decision import BatchDecisions
from tailens.ensemble import ParticleEnsemble
from tailens.numcore import NetShape, class_id_dtype, init_params
from tailens.utility import UtilityMatrix


def random_ensemble(shape: NetShape, n_particles: int, seed: int) -> ParticleEnsemble:
    """Ensemble with independently initialized particles, seeded per particle."""
    particles = np.stack(
        [
            init_params(shape, np.random.default_rng(np.random.SeedSequence((seed, j))))
            for j in range(n_particles)
        ]
    )
    return ParticleEnsemble(shape=shape, particles=particles)


def probs_ensemble(probs_rows) -> ParticleEnsemble:
    """Linear bias-only ensemble whose particle j predicts probs_rows[j].

    Uses a no-hidden-layer network on a 1-dim input with zero weights, so the
    log-probabilities are the log-softmax of the bias alone and independent
    of x. Each row must be a probability vector.
    """
    probs_rows = np.asarray(probs_rows, dtype=np.float64)
    k = probs_rows.shape[1]
    shape = NetShape(1, (), k)
    particles = []
    for row in probs_rows:
        assert abs(row.sum() - 1.0) < 1e-9
        particles.append(np.concatenate([np.zeros(k), np.log(row)]))
    return ParticleEnsemble(shape=shape, particles=np.stack(particles))


def random_utility(k: int, rng: np.random.Generator) -> UtilityMatrix:
    """Random matrix nudged so every diagonal entry is its row maximum."""
    values = rng.normal(size=(k, k))
    values[np.arange(k), np.arange(k)] = values.max(axis=1) + rng.uniform(0.1, 1.0, k)
    return UtilityMatrix(k, values)


CLASS_ID_FIELDS = ("decisions", "argmax_preds", "particle_preds")


def assert_same_decisions(got: BatchDecisions, want: BatchDecisions, num_classes: int):
    """Every field of got equals want's: the class ids by value and stored in
    class_id_dtype(num_classes), the floats by dtype and bytes."""
    for field in fields(BatchDecisions):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert a.shape == b.shape, field.name
        if field.name in CLASS_ID_FIELDS:
            assert a.dtype == class_id_dtype(num_classes), field.name
            assert np.array_equal(a, b), field.name
        else:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field.name


@pytest.fixture
def rng():
    return np.random.default_rng(np.random.SeedSequence(1234))
